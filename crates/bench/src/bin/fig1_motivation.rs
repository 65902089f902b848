//! Regenerates the paper's fig1 (see `ce_bench::experiments::fig1`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[fig1_motivation] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::fig1::run(scale);
}
