//! Stub generation for entry points (paper §3.1.1, Figure 2).
//!
//! For every entry point DriverSlicer emits stubs that (1) translate
//! parameters through the object tracker, (2) marshal arguments, (3)
//! transfer control, (4) unmarshal return values. Two renderings are
//! produced: a Jeannie-style stub (the paper's Figure 2 artifact) and a
//! kernel-side C stub for the emitted nucleus source tree. This
//! repository's own runtime renders nothing: a decaf driver registers its
//! handlers by entry-point name against the [`crate::SlicePlan`] itself.

use crate::ast::CType;
use crate::partition::EntryPoint;

fn c_ret(ty: &CType) -> String {
    ty.c_syntax()
}

fn java_type(ty: &CType) -> &'static str {
    match ty {
        CType::Void => "void",
        CType::LongLong | CType::ULongLong => "long",
        _ => "int",
    }
}

/// Renders a Jeannie stub in the style of the paper's Figure 2: the
/// backtick operator switches between Java and C for a single expression.
pub fn jeannie_stub(ep: &EntryPoint) -> String {
    let mut out = String::new();
    let params: Vec<String> = ep
        .object_params
        .iter()
        .map(|(p, s)| format!("{s} java_{p}"))
        .chain(
            ep.scalar_params
                .iter()
                .map(|(p, t)| format!("{} {p}", java_type(t))),
        )
        .collect();
    out.push_str(&format!(
        "public static {} {}({}) {{\n",
        java_type(&ep.ret),
        ep.name,
        params.join(", ")
    ));
    for (p, _) in &ep.object_params {
        out.push_str(&format!(
            "    CPointer c_{p} = JavaOT.xlate_j_to_c (java_{p});\n"
        ));
    }
    out.push_str(&format!("    {} java_ret;\n", java_type(&ep.ret)));
    out.push_str("    begin_marshaling ();\n");
    for (p, _) in &ep.object_params {
        out.push_str(&format!("    copy_XDR_j2c (java_{p});\n"));
    }
    out.push_str("    end_marshaling ();\n");
    let c_args: Vec<String> = ep
        .object_params
        .iter()
        .map(|(p, _)| format!("(void *) `c_{p}.get_c_ptr()"))
        .chain(ep.scalar_params.iter().map(|(p, _)| format!("`{p}")))
        .collect();
    out.push_str(&format!(
        "    java_ret = `{} ({});\n",
        ep.name,
        c_args.join(", ")
    ));
    out.push_str("    begin_marshaling ();\n");
    for (p, s) in &ep.object_params {
        out.push_str(&format!(
            "    java_{p} = ({s}) copy_XDR_c2j (java_{p}, c_{p});\n"
        ));
    }
    out.push_str("    end_marshaling ();\n");
    out.push_str("    return java_ret;\n}\n");
    out
}

/// Renders the kernel-side C stub placed in the nucleus source tree where
/// the moved function used to be.
pub fn kernel_stub(ep: &EntryPoint) -> String {
    let params: Vec<String> = ep
        .object_params
        .iter()
        .map(|(p, s)| format!("struct {s} *{p}"))
        .chain(
            ep.scalar_params
                .iter()
                .map(|(p, t)| format!("{} {p}", t.c_syntax())),
        )
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "/* Generated by DriverSlicer: `{}` now runs in the decaf driver. */\n",
        ep.name
    ));
    out.push_str(&format!(
        "{} {}({})\n{{\n",
        c_ret(&ep.ret),
        ep.name,
        params.join(", ")
    ));
    out.push_str("    struct xpc_msg msg;\n    xpc_msg_init(&msg);\n");
    for (p, s) in &ep.object_params {
        out.push_str(&format!("    xpc_marshal_{s}(&msg, {p});\n"));
    }
    for (p, _) in &ep.scalar_params {
        out.push_str(&format!("    xpc_marshal_scalar(&msg, {p});\n"));
    }
    out.push_str(&format!(
        "    return xpc_upcall(\"{}\", &msg);\n}}\n",
        ep.name
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_xdr::plan::TypeIds;

    fn snd_card_register() -> EntryPoint {
        EntryPoint {
            name: "snd_card_register".into(),
            object_params: vec![("card".into(), "snd_card".into())],
            object_ids: TypeIds::default(),
            scalar_params: vec![],
            ret: CType::Int,
        }
    }

    #[test]
    fn jeannie_stub_matches_figure2_shape() {
        let s = jeannie_stub(&snd_card_register());
        // The six steps of §3.1.1 are all visible in the stub text.
        assert!(s.contains("public static int snd_card_register(snd_card java_card)"));
        assert!(
            s.contains("JavaOT.xlate_j_to_c (java_card)"),
            "object tracker consult"
        );
        assert!(s.contains("copy_XDR_j2c (java_card)"), "marshal arguments");
        assert!(
            s.contains("`snd_card_register ((void *) `c_card.get_c_ptr())"),
            "backtick C call"
        );
        assert!(
            s.contains("copy_XDR_c2j (java_card, c_card)"),
            "unmarshal out params"
        );
        assert!(s.contains("return java_ret;"));
    }

    #[test]
    fn kernel_stub_marshals_and_upcalls() {
        let ep = EntryPoint {
            name: "e1000_check_options".into(),
            object_params: vec![("adapter".into(), "e1000_adapter".into())],
            object_ids: TypeIds::default(),
            scalar_params: vec![("speed".into(), CType::Int)],
            ret: CType::Int,
        };
        let s = kernel_stub(&ep);
        assert!(s.contains("int e1000_check_options(struct e1000_adapter *adapter, int speed)"));
        assert!(s.contains("xpc_marshal_e1000_adapter(&msg, adapter);"));
        assert!(s.contains("xpc_marshal_scalar(&msg, speed);"));
        assert!(s.contains("xpc_upcall(\"e1000_check_options\", &msg);"));
    }

    #[test]
    fn hyper_returns_map_to_long() {
        let ep = EntryPoint {
            name: "get_stats".into(),
            object_params: vec![],
            object_ids: TypeIds::default(),
            scalar_params: vec![],
            ret: CType::ULongLong,
        };
        assert!(jeannie_stub(&ep).contains("public static long get_stats()"));
    }
}
