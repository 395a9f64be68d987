//! Seeded violations for the clippy lints that replaced six `scp-analyze`
//! line rules: one positive case per retired rule, taken from its golden
//! tests. CI copies this file into a scratch workspace member that opts
//! into `[workspace.lints]`, and requires `cargo clippy` to fail on it
//! naming every moved lint and every disallowed path family.

use std::collections::HashMap;
use std::sync::Mutex;

// panic-path
pub fn panic_path(x: Option<u64>, r: Result<u64, ()>) -> u64 {
    if x.is_none() {
        panic!("boom");
    }
    if r.is_err() {
        unreachable!();
    }
    if x == Some(1) {
        todo!();
    }
    if x == Some(2) {
        unimplemented!();
    }
    x.unwrap() + r.expect("boom")
}

// slice-index
pub fn slice_index(v: &[u64]) -> u64 {
    v[0]
}

// wall-clock
pub fn wall_clock() -> f64 {
    let t = std::time::Instant::now();
    t.elapsed().as_secs_f64()
}

// env-entropy
pub fn env_entropy() -> Option<String> {
    let _m: HashMap<u64, u64, std::collections::hash_map::RandomState> = HashMap::default();
    std::env::var("SCP_SEED").ok()
}

// unsafe-hygiene
pub fn unsafe_hygiene(r: &u8) -> u8 {
    let p: *const u8 = r;
    unsafe { *p }
}

// concurrency-primitive
pub fn concurrency_primitive() -> u64 {
    std::thread::spawn(|| {});
    *Mutex::new(7u64).lock().unwrap_or_else(|e| e.into_inner())
}
