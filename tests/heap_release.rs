//! A typecheck whose walk builds a large DBTA frees tens of MB when it
//! returns: the DBTA, its NTA expansion, the trimmed copy and the
//! emptiness search. glibc would keep most of that resident for the rest
//! of the process, so `typecheck` hands it back to the OS, and the
//! resident set ends close to where it started.
//!
//! A `harness = false` test: it must run on the main thread (see
//! Cargo.toml).

fn main() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    large_walk_leaves_no_resident_heap_behind();
    println!("test large_walk_leaves_no_resident_heap_behind ... ok");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn large_walk_leaves_no_resident_heap_behind() {
    use xmltc::dsl::corpus::{generate, Family, CORPUS_STATE_LIMIT};
    use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions};
    use xmltc::typecheck::{typecheck, violation_automaton, TypecheckOptions};

    // 305 DBTA states and 186 050 transitions; the typecheck peaks ~35 MB
    // above where it starts.
    let case = generate(0x15f3d5ce8accaf75, Family::SilentChains, 2268)
        .compile()
        .unwrap();
    let v = violation_automaton(&case.transducer, &case.tau2)
        .unwrap()
        .trim_states();
    let walk = WalkOptions {
        limit: CORPUS_STATE_LIMIT,
        ..WalkOptions::default()
    };
    let (_, stats) = walking_to_dbta_with(&v, &walk).unwrap();
    assert_eq!(stats.pairs, 186_050);

    let opts = TypecheckOptions {
        state_limit: CORPUS_STATE_LIMIT,
        ..TypecheckOptions::default()
    };
    let before = resident_kb();
    let outcome = typecheck(&case.transducer, &case.tau1, &case.tau2, &opts).unwrap();
    let after = resident_kb();
    assert!(outcome.is_ok());
    assert!(
        after < before + 8 * 1024,
        "resident set grew from {before} KiB to {after} KiB across one typecheck"
    );
}

/// This process's resident set (`VmRSS`), in KiB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}
