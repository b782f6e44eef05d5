//! Criterion benches: MDP solver scaling on the per-RSU cache MDP, and the
//! compiled-kernel vs trait-callback comparison tracked by the BENCH
//! trajectory.

use aoi_cache::{Age, RsuSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdp::solver::{PolicyIteration, QLearning, RelativeValueIteration, ValueIteration};
use mdp::{CompiledMdp, FiniteMdp, ProductSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec(n_contents: usize, cap: u32) -> RsuSpec {
    let popularity: Vec<f64> = (0..n_contents).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = popularity.iter().sum();
    RsuSpec {
        max_ages: (0..n_contents)
            .map(|i| Age::new(cap - 1 - (i as u32 % 2)).expect("non-zero"))
            .collect(),
        popularity: popularity.into_iter().map(|p| p / total).collect(),
        age_cap: Age::new(cap).expect("non-zero"),
        weight: 1.0,
        update_cost: 0.3,
    }
}

fn bench_value_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("value_iteration");
    group.sample_size(10);
    for (n, cap) in [(2usize, 6u32), (3, 6), (4, 6)] {
        let s = spec(n, cap);
        let mdp = s.mdp().expect("valid spec");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}states", mdp.n_states())),
            &mdp,
            |b, mdp| {
                b.iter(|| {
                    ValueIteration::new(0.9)
                        .tolerance(1e-6)
                        .solve(mdp)
                        .expect("solves")
                })
            },
        );
    }
    group.finish();
}

/// The headline comparison: value iteration through the trait callback
/// (re-deriving every transition row per sweep) against the compiled
/// kernel, at a small and a large per-RSU state space. `compile+solve`
/// includes the one-off compilation; `solve_compiled` measures pure sweep
/// throughput on a prebuilt kernel (the steady state for simulators, which
/// compile each RSU once).
fn bench_compiled_vs_callback(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_vs_callback");
    group.sample_size(10);
    // (label, contents, age cap): 216 states vs 4096 states.
    for (label, n, cap) in [("small_216", 3usize, 6u32), ("large_4096", 4, 8)] {
        let s = spec(n, cap);
        let mdp = s.mdp().expect("valid spec");
        let kernel = mdp.compile().expect("compiles");
        let vi = ValueIteration::new(0.95).tolerance(1e-9);
        group.bench_with_input(BenchmarkId::new("callback", label), &mdp, |b, mdp| {
            b.iter(|| vi.solve_callback(mdp).expect("solves"))
        });
        group.bench_with_input(BenchmarkId::new("compile+solve", label), &mdp, |b, mdp| {
            b.iter(|| vi.solve(mdp).expect("solves"))
        });
        group.bench_with_input(
            BenchmarkId::new("solve_compiled", label),
            &kernel,
            |b, kernel| b.iter(|| vi.solve_compiled(kernel).expect("solves")),
        );
        let pi = PolicyIteration::new(0.95);
        group.bench_with_input(BenchmarkId::new("pi_callback", label), &mdp, |b, mdp| {
            b.iter(|| pi.solve_callback(mdp).expect("solves"))
        });
        group.bench_with_input(
            BenchmarkId::new("pi_solve_compiled", label),
            &kernel,
            |b, kernel| b.iter(|| pi.solve_compiled(kernel).expect("solves")),
        );
    }
    group.finish();
}

/// The per-RSU model at the true fig1a solver size (5 contents, age cap 9:
/// 59,049 states × 6 actions — the model every `ensemble` cell and
/// `aoi-serve` engine compiles and solves): `compile` (callback rows into
/// the dense kernel), `solve_rvi` (relative value iteration at the
/// tolerance of the `mdp-avg` policy every fig1a grid solves), and value iteration's
/// full-tolerance `solve_compiled` against
/// the certified policy-only `solve_policy`, which runs modified policy
/// iteration (full sweeps, each followed by 10 one-row-per-state
/// evaluation sweeps of its greedy policy), stops once a full sweep's
/// action gap proves the greedy policy optimal, and returns the same
/// policy.
fn bench_fig1a_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1a_size");
    group.sample_size(10);
    let mdp = spec(5, 9).mdp().expect("valid spec");
    group.bench_with_input(
        BenchmarkId::new("compile", "59049states"),
        &mdp,
        |b, mdp| b.iter(|| mdp.compile().expect("compiles")),
    );
    let kernel = mdp.compile().expect("compiles");
    let rvi = RelativeValueIteration::new().tolerance(1e-10);
    group.bench_with_input(
        BenchmarkId::new("solve_rvi", "59049states"),
        &kernel,
        |b, kernel| b.iter(|| rvi.solve_compiled(kernel).expect("solves")),
    );
    let vi = ValueIteration::new(0.95);
    group.bench_with_input(
        BenchmarkId::new("solve_compiled", "59049states"),
        &kernel,
        |b, kernel| b.iter(|| vi.solve_compiled(kernel).expect("solves")),
    );
    group.bench_with_input(
        BenchmarkId::new("solve_policy", "59049states"),
        &kernel,
        |b, kernel| b.iter(|| vi.solve_policy(kernel).expect("solves")),
    );
    group.finish();
}

/// Pure sweep-kernel throughput (state backups per second): blocked sweeps
/// over the action-major dense mirror on prebuilt kernels, with the
/// end-to-end number tracked by `solve_compiled` above. Throughput is
/// counted in state backups (`n_states × sweeps`).
fn bench_sweep_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_kernel");
    group.sample_size(10);
    const SWEEPS: usize = 8;
    for (label, n, cap) in [("small_216", 3usize, 6u32), ("large_4096", 4, 8)] {
        let kernel = spec(n, cap)
            .mdp()
            .expect("valid spec")
            .compile()
            .expect("compiles");
        group.throughput(criterion::Throughput::Elements(
            (kernel.n_states() * SWEEPS) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("blocked", label), &kernel, |b, kernel| {
            b.iter(|| {
                let n = kernel.n_states();
                let mut values = vec![0.0f64; n];
                let mut out = vec![0.0f64; n];
                for _ in 0..SWEEPS {
                    kernel.backup_block(0..n, &values, &mut out, 0.95);
                    std::mem::swap(&mut values, &mut out);
                }
                std::hint::black_box(values)
            })
        });
    }
    group.finish();
}

/// One-off cost of compiling a model into its kernel (the price paid to
/// unlock the fast sweeps above).
fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_mdp");
    group.sample_size(10);
    for (label, n, cap) in [("small_216", 3usize, 6u32), ("large_4096", 4, 8)] {
        let mdp = spec(n, cap).mdp().expect("valid spec");
        group.bench_with_input(BenchmarkId::from_parameter(label), &mdp, |b, mdp| {
            b.iter(|| CompiledMdp::compile(mdp).expect("compiles"))
        });
    }
    group.finish();
}

fn bench_q_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("q_learning");
    group.sample_size(10);
    let s = spec(3, 6);
    let mdp = s.mdp().expect("valid spec");
    for steps in [10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, &steps| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                QLearning::new(0.9)
                    .steps(steps)
                    .learn(&mdp, &mut rng)
                    .expect("learns")
            })
        });
    }
    group.finish();
}

/// The experiment engine on the grid presets: how much a whole multi-cell
/// grid costs end to end (policy solves on shared compiled kernels plus
/// the simulation loops), serial vs auto-sized executor fan-out. On
/// multicore hosts the auto variant also measures the cell-level
/// parallelism win; on single-CPU hosts the two coincide.
fn bench_experiment_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_grid");
    group.sample_size(10);
    let serial = aoi_cache::presets::smoke_grid().workers(1);
    group.bench_function("smoke_2x2_serial", |b| {
        b.iter(|| serial.run().expect("runs"))
    });
    let auto = aoi_cache::presets::smoke_grid();
    group.bench_function("smoke_2x2_auto", |b| b.iter(|| auto.run().expect("runs")));
    group.finish();
}

fn bench_state_encoding(c: &mut Criterion) {
    let space = ProductSpace::new(vec![9; 5]).expect("fits");
    let coords = vec![3usize, 7, 1, 8, 0];
    c.bench_function("product_space_encode_decode", |b| {
        b.iter(|| {
            let idx = space.encode(std::hint::black_box(&coords)).expect("valid");
            std::hint::black_box(space.decode(idx))
        })
    });
}

fn bench_transition_row(c: &mut Criterion) {
    let s = spec(5, 9);
    let mdp = s.mdp().expect("valid spec");
    let mut buf = Vec::new();
    c.bench_function("cache_mdp_transition_row", |b| {
        let mut state = 0usize;
        b.iter(|| {
            mdp.transitions(std::hint::black_box(state), 2, &mut buf);
            state = (state + 9973) % mdp.n_states();
            std::hint::black_box(buf.len())
        })
    });
}

criterion_group!(
    benches,
    bench_value_iteration,
    bench_compiled_vs_callback,
    bench_fig1a_size,
    bench_sweep_kernel,
    bench_compile,
    bench_q_learning,
    bench_experiment_grid,
    bench_state_encoding,
    bench_transition_row
);
criterion_main!(benches);
