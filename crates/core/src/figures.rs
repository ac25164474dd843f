//! Regenerators for the paper's figures.
//!
//! Figures 1–5 of the paper are an architecture diagram and four code
//! artifacts. Each function here *generates* its artifact from the live
//! system — the stub comes out of the stub generator, the XDR out of the
//! spec generator, the audit numbers out of the audit pass — so the
//! figures track the implementation rather than being pasted text.

use decaf_drivers::DriverKind;
use decaf_slicer::partition::EntryPoint;
use decaf_slicer::{audit, parse, slice, stubgen, CType, SliceConfig};
use decaf_xdr::plan::TypeIds;

/// Figure 1: the Decaf architecture, rendered from a live decaf E1000.
///
/// Shows the three domains and the procedures actually registered on the
/// running channel (upcalls in the decaf driver, downcalls in the
/// nucleus).
pub fn figure1() -> String {
    let kernel = decaf_simkernel::Kernel::new();
    let drv = decaf_drivers::e1000::decaf::install(&kernel, "eth0").expect("install");
    let ups = drv.channel.proc_names(decaf_xpc::Domain::Decaf);
    let downs = drv.channel.proc_names(decaf_xpc::Domain::Nucleus);
    let mut out = String::new();
    out.push_str(
        "                  User-level Driver\n\
         +-----------------------------+   +------------------+\n\
         |  Decaf Driver (safe Rust)   |<->| Driver Library(C)|\n",
    );
    out.push_str(&format!(
        "         |  {} upcall entry points     |   +------------------+\n",
        ups.len()
    ));
    for name in ups.iter().take(6) {
        out.push_str(&format!("         |    - {name:<22} |\n"));
    }
    out.push_str(
        "         +-------------+---------------+\n\
                       | Kernel/User XPC (stubs, XDR, object tracker)\n\
         +-------------v---------------+\n\
         |  Driver Nucleus (kernel)    |\n",
    );
    out.push_str(&format!(
        "         |  {} downcall procedures      |\n",
        downs.len()
    ));
    for name in downs.iter().take(6) {
        out.push_str(&format!("         |    - {name:<22} |\n"));
    }
    out.push_str(
        "         +-------------+---------------+\n\
                       | MMIO / DMA / IRQ\n\
         +-------------v---------------+\n\
         |  E1000 device model         |\n\
         +-----------------------------+\n",
    );
    out
}

/// Figure 2: the Jeannie stub for `snd_card_register`, generated by the
/// stub generator from the ens1371 boundary.
pub fn figure2() -> String {
    // snd_card_register is a kernel import of the ens1371 driver carrying
    // the chip object; the paper shows exactly this stub.
    let ep = EntryPoint {
        name: "snd_card_register".into(),
        object_params: vec![("card".into(), "snd_card".into())],
        object_ids: TypeIds::default(),
        scalar_params: vec![],
        ret: CType::Int,
    };
    stubgen::jeannie_stub(&ep)
}

/// Figure 3: the XDR interface DriverSlicer generates for
/// `e1000_adapter`, with the pointer-to-array rewrite.
///
/// Returns `(original struct source, generated XDR IDL)`.
pub fn figure3() -> (String, String) {
    let src = DriverKind::E1000.minic_source();
    let program = parse::parse(src).expect("parse e1000");
    let original = program
        .find_struct("e1000_adapter")
        .map(|s| {
            let mut text = String::from("struct e1000_adapter {\n");
            for f in &s.fields {
                match f.exp_len {
                    Some(n) => {
                        text.push_str(&format!("    {} {} @exp({n});\n", f.ty.c_syntax(), f.name))
                    }
                    None => text.push_str(&format!("    {} {};\n", f.ty.c_syntax(), f.name)),
                }
            }
            text.push_str("};\n");
            text
        })
        .unwrap_or_default();
    let plan = slice(src, &SliceConfig::default()).expect("slice e1000");
    (original, plan.spec.to_idl())
}

/// Figure 4: the staged-cleanup `e1000_open`.
///
/// Returns `(goto-label original from the mini-C source, the safe-Rust
/// staged-cleanup rendition used by the decaf build)`.
pub fn figure4() -> (String, String) {
    let program = parse::parse(DriverKind::E1000.minic_source()).expect("parse");
    let original = program
        .find_function("e1000_open")
        .map(|f| f.source.clone())
        .unwrap_or_default();
    // The decaf build's shape: each stage acquires a resource; each
    // failure path releases exactly the stages before it (the nested
    // exception handlers of the paper's Figure 4, as Results).
    let rust = r#"fn e1000_open(k: &Kernel, ch: &XpcChannel, adapter: CAddr) -> Result<(), i32> {
    setup_tx_resources(k, ch)?; // stage 1
    if let Err(e) = setup_rx_resources(k, ch) {
        free_tx_resources(k, ch); // unwind stage 1
        return Err(e);
    }
    if let Err(e) = request_irq(k, ch) {
        free_rx_resources(k, ch); // unwind stage 2
        free_tx_resources(k, ch); // unwind stage 1
        return Err(e);
    }
    power_up_phy(k, ch);
    if let Err(e) = up_datapath(k, ch) {
        free_irq(k, ch);          // unwind stage 3
        free_rx_resources(k, ch);
        free_tx_resources(k, ch);
        return Err(e);
    }
    set_link_up(ch, adapter);
    Ok(())
}"#;
    (original, rust.to_string())
}

/// The Figure 5 numbers: the error-handling audit over the E1000 source.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Calls whose error return is silently dropped (paper: 28 in the
    /// real driver).
    pub ignored_returns: usize,
    /// `if (ret) return/goto` propagation lines removable by exceptions
    /// (paper: ~675, 8% of e1000_hw.c).
    pub propagation_lines: usize,
    /// Fraction of the source those lines represent.
    pub removable_fraction: f64,
    /// Functions using goto-label cleanup (Figure 4 candidates).
    pub goto_cleanup_functions: usize,
    /// Example finding, rendered.
    pub example: String,
}

/// Figure 5: runs the audit pass over the E1000 mini-C source.
pub fn figure5() -> Figure5 {
    let program = parse::parse(DriverKind::E1000.minic_source()).expect("parse");
    let report = audit::audit(&program);
    let example = report
        .ignored_returns
        .first()
        .map(|f| {
            format!(
                "{}: return value of `{}` ignored at line {}",
                f.function, f.callee, f.line
            )
        })
        .unwrap_or_default();
    Figure5 {
        ignored_returns: report.ignored_returns.len(),
        propagation_lines: report.propagation_lines,
        removable_fraction: report.removable_fraction(program.total_loc),
        goto_cleanup_functions: report.goto_cleanup_functions.len(),
        example,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_live_endpoints() {
        let f = figure1();
        assert!(f.contains("Decaf Driver"));
        assert!(f.contains("e1000_open"));
        assert!(f.contains("Driver Nucleus"));
    }

    #[test]
    fn figure2_is_the_snd_card_register_stub() {
        let f = figure2();
        assert!(f.contains("public static int snd_card_register(snd_card java_card)"));
        assert!(f.contains("`snd_card_register"));
    }

    #[test]
    fn figure3_contains_the_wrapper_transform() {
        let (original, idl) = figure3();
        assert!(original.contains("config_space @exp(256)"), "{original}");
        assert!(idl.contains("struct array256_uint32_t"));
        assert!(idl.contains("array256_uint32_t_ptr"));
        // The generated IDL is valid XDR.
        assert!(decaf_xdr::XdrSpec::parse(&idl).is_ok());
    }

    #[test]
    fn figure4_shows_both_styles() {
        let (c, rust) = figure4();
        assert!(c.contains("goto err_setup_tx"));
        assert!(rust.contains("free_tx_resources"));
        assert!(rust.contains("Result<(), i32>"));
    }

    #[test]
    fn figure5_finds_the_bug_class() {
        let f = figure5();
        assert!(f.ignored_returns >= 2, "the sloppy paths are found: {f:?}");
        assert!(f.propagation_lines >= 8, "the idiom is counted: {f:?}");
        assert!(
            f.goto_cleanup_functions >= 1,
            "e1000_open uses goto cleanup"
        );
        assert!(f.removable_fraction > 0.0);
    }
}
