//! `repro`'s command line: refused inputs exit 2 before anything runs,
//! and the artifact table `repro` reads lists each id once, in `all`'s
//! order.

use std::process::Command;

use asyncmr_bench::ARTIFACTS;

/// Runs `repro` with `args`; returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--no-save"])
        .output()
        .expect("run repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn nonsense_scale_is_refused_by_name() {
    for scale in ["nan", "inf", "-inf", "0", "-1", "abc"] {
        let (code, stderr) = repro(&["--scale", scale, "table2"]);
        assert_eq!(code, Some(2), "--scale {scale}: {stderr}");
        assert!(stderr.contains(&format!("--scale {scale}")), "--scale {scale}: {stderr}");
        assert!(!stderr.contains("# repro:"), "--scale {scale} ran anyway: {stderr}");
    }
}

#[test]
fn zero_threads_and_reducers_are_refused() {
    for flag in ["--threads", "--reducers"] {
        let (code, stderr) = repro(&[flag, "0", "table1"]);
        assert_eq!(code, Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(&format!("{flag} 0")), "{flag} 0: {stderr}");
    }
}

#[test]
fn unknown_artifact_is_refused_before_anything_runs() {
    let (code, stderr) = repro(&["table1", "fig99"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown artifact: fig99"), "{stderr}");
    assert!(!stderr.contains("# repro:"), "{stderr}");
}

#[test]
fn usage_lists_every_artifact() {
    let (code, stderr) = repro(&["--help"]);
    assert_eq!(code, Some(2));
    for id in ARTIFACTS.iter().flat_map(|a| a.ids) {
        assert!(stderr.contains(id), "usage does not name {id}: {stderr}");
    }
}

#[test]
fn artifact_table_lists_each_id_once_in_all_order() {
    let ids: Vec<&str> = ARTIFACTS.iter().flat_map(|a| a.ids.iter().copied()).collect();
    assert_eq!(
        ids,
        [
            "table1",
            "table2",
            "fig2",
            "fig4",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "faults",
            "ablation",
            "scalability",
            "sched",
        ]
    );
    for id in &ids {
        assert_eq!(ids.iter().filter(|other| *other == id).count(), 1, "{id} listed twice");
    }
    assert!(!ids.contains(&"all"), "`all` is repro's, not an artifact");
}
