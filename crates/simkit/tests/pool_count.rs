//! Pool-reuse accounting: a multi-round [`simkit::executor::run_rounds`]
//! call must spawn exactly one worker pool, reused by every round.
//!
//! This lives in its own integration-test binary (one test, one process)
//! because the pool counter is process-global: unit tests running
//! concurrently would race the delta.

use simkit::executor::{parallel_map, pools_created, run_rounds};

#[test]
fn one_pool_per_round_loop() {
    let fifty_rounds = || {
        run_rounds(
            vec![0.0f64; 256],
            4,
            50,
            1,
            |range, old: &[f64], out: &mut [f64], _: &mut ()| {
                for (slot, i) in out.iter_mut().zip(range) {
                    *slot = old[i] + i as f64;
                }
            },
            |_, _, _| false,
        )
    };

    if !cfg!(feature = "parallel") {
        // Serial builds never spawn pools at all.
        let before = pools_created();
        let _ = fifty_rounds();
        assert_eq!(pools_created(), before);
        return;
    }

    let before = pools_created();
    let _ = fifty_rounds();
    assert_eq!(
        pools_created() - before,
        1,
        "a 50-round loop must spawn exactly one pool"
    );

    // One-shot maps use scoped fan-out, not the persistent pool.
    let before = pools_created();
    let items: Vec<usize> = (0..64).collect();
    let _ = parallel_map(4, &items, |_, x| x * 2);
    assert_eq!(pools_created(), before);
}
