//! README's commands name files that exist: every `scenarios/<name>.toml`
//! is a checked-in document and every `--example <x>` is a file under
//! `examples/`. A demo or scenario deleted without its README line fails
//! here instead of on a reader's command line.

use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every name that follows `prefix` in `text`: the longest run of
/// `[A-Za-z0-9_-]` after each occurrence, with what comes next.
fn names_after<'t>(text: &'t str, prefix: &str) -> Vec<(&'t str, &'t str)> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    text.match_indices(prefix)
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            let end = rest.find(|c| !word(c)).unwrap_or(rest.len());
            (&rest[..end], &rest[end..])
        })
        .collect()
}

#[test]
fn every_scenario_and_example_the_readme_names_exists() {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();

    let scenarios: Vec<&str> = names_after(&readme, "scenarios/")
        .into_iter()
        .filter(|(name, next)| !name.is_empty() && next.starts_with(".toml"))
        .map(|(name, _)| name)
        .collect();
    assert!(!scenarios.is_empty(), "README names no scenario file");
    for name in scenarios {
        let path = Path::new(ROOT).join(format!("scenarios/{name}.toml"));
        assert!(
            path.is_file(),
            "README names scenarios/{name}.toml, which is missing"
        );
    }

    let examples: Vec<&str> = names_after(&readme, "--example ")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert!(!examples.is_empty(), "README names no example");
    for name in examples {
        let path = Path::new(ROOT).join(format!("examples/{name}.rs"));
        assert!(
            path.is_file(),
            "README runs `--example {name}`, and examples/{name}.rs is missing"
        );
    }
}
