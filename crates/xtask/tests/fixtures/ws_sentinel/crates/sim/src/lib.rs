//! Entry crate for the sentinel-guard fixture workspace.

pub fn run_batch(r: &Ring, w: &mut Ring) -> u32 {
    w.store(0, 1);
    r.read_unguarded(0) + r.read_guarded(0).unwrap_or(0) + r.read_suppressed(0)
}
