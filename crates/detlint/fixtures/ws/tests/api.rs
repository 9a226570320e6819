//! Fixture integration test: drives the seeded crates' public API, so
//! U001 sees those items named from outside their libraries.

#[test]
fn api() {
    let _ = alpha::Engine::default().decide();
    let _ = alpha::renamed_helper();
    let _ = beta::dead_clock();
    let _ = gamma::parse_count(Some(1));
    gamma::fork_worker();
    let _ = gamma::fixed_epoch() + gamma::hour_loop(2) as u64;
    let _ = rt::timed_worker();
    let _ = delta::from_integration_test();
}
