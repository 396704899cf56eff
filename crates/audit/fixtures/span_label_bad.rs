//! `span-label` fixture: the call that builds a `String` on its second
//! line is flagged at its first; the typed value and the string literal
//! that merely names `.to_string()` are not.

fn label(ctx: &mut Ctx<'_, Msg>, span: SpanId, vm: VmId) {
    ctx.span_label(span, "vm", vm.0);
    ctx.span_label(span, "kind: .to_string()", "placed");
    ctx.span_label(span, "vm",
        vm.0.to_string());
}
