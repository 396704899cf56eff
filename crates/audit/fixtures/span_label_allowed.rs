//! `span-label` fixture: a value that is an owned string by nature keeps
//! its marker.

fn label(ctx: &mut Ctx<'_, Msg>, span: SpanId, name: &str) {
    // audit-allow(span-label): the operator names it at run time
    ctx.span_label(span, "name", name.to_string());
}
