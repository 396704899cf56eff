//! An indented `#[cfg(test)]` marks one item, not a trailing test module:
//! the code after it is still linted.

macro_rules! with_a_test {
    () => {
        #[cfg(test)]
        #[test]
        fn inside_the_macro() {}

        pub fn after_the_item() -> std::time::Instant {
            std::time::Instant::now()
        }
    };
}
