//! Regression gate: a seeded `Release` → `Relaxed` demotion in the real
//! SPSC ring source is caught *statically* by the pairing pass.
//!
//! The interleaving explorer already proves this bug dynamically by
//! enumerating schedules; this test proves the static complement: take
//! `crates/serve/src/spsc.rs` verbatim, demote the producer's
//! publication store, and require `atomic-unpaired` to fire on the
//! demoted line. CI runs this file as its own named step, so the
//! pipeline output shows the demotion being caught by name.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::atomics::check_file;
use scp_analyze::files::{find_workspace_root, SourceFile};
use std::path::Path;

fn spsc_source() -> String {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace");
    std::fs::read_to_string(root.join("crates/serve/src/spsc.rs")).expect("spsc.rs exists")
}

#[test]
fn pristine_spsc_ring_is_pairing_clean() {
    // Control: the committed ring has zero unsuppressed pairing findings
    // (otherwise the demotion test below could pass vacuously).
    let file = SourceFile::from_source("crates/serve/src/spsc.rs", &spsc_source());
    let findings = check_file(&file);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn seeded_release_to_relaxed_demotion_is_caught() {
    let src = spsc_source();
    let seeded = "self.tail.store(tail + 1, Ordering::Release)";
    let demoted = "self.tail.store(tail + 1, Ordering::Relaxed)";
    assert!(
        src.contains(seeded),
        "the producer's publication store moved; update this fixture"
    );
    let broken = src.replacen(seeded, demoted, 1);
    let file = SourceFile::from_source("crates/serve/src/spsc.rs", &broken);
    let findings = check_file(&file);
    // The consumer still acquire-loads `tail`, so the broken side is the
    // acquire that now synchronizes with nothing.
    assert!(
        !findings.is_empty(),
        "the demoted publication store went unnoticed"
    );
    assert!(
        findings.iter().all(|f| f.rule == "atomic-unpaired"),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("tail") && f.message.contains("synchronizes with nothing")),
        "expected the orphaned acquire read of `tail` to be named:\n{findings:?}"
    );
}

#[test]
fn seeded_acquire_demotion_on_the_consumer_side_is_caught() {
    // Symmetric seed: demote the consumer's head publication instead.
    let src = spsc_source();
    let seeded = "self.head.store(head + 1, Ordering::Release)";
    let demoted = "self.head.store(head + 1, Ordering::Relaxed)";
    assert!(
        src.contains(seeded),
        "the consumer's free-slot store moved; update this fixture"
    );
    // Both head stores (scalar and batched) must be demoted, or the
    // remaining Release keeps the pool paired — which is itself the
    // pooling semantics working as designed.
    let broken = src.replace(seeded, demoted).replace(
        "self.head.store(head + taken, Ordering::Release)",
        "self.head.store(head + taken, Ordering::Relaxed)",
    );
    let file = SourceFile::from_source("crates/serve/src/spsc.rs", &broken);
    let findings = check_file(&file);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("head") && f.message.contains("synchronizes with nothing")),
        "expected the producer's orphaned acquire read of `head`:\n{findings:?}"
    );
}
