//! Pinned output digests: what `ensemble` prints (every group's final
//! mean and CI, f64 bits) for each replicate seed of the pool, at the
//! paper's horizon (`fig1a-ensemble`) and at the campaign horizon
//! (`campaign`, `campaign-resume`). Regenerate with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- pins`;
//! a change to these values is a change to the program's output.

use crate::roles::{ensemble_digest, ensemble_plans};
use crate::util::{BoxError, Digest};

const ENSEMBLE: [&str; 16] = [
    "c86f7bb2b91583bf",
    "b8732ca911cd10bb",
    "0d8ede5cc9dc5e2d",
    "8da5c94d522e3b95",
    "b53e32a9a277b138",
    "f89646a0f5d534f9",
    "ca2ce00fa00261ab",
    "6ac407a8e9efb656",
    "899e80225378a061",
    "0826074f757a5cb0",
    "02735a465d0fffc1",
    "d2428c77154960f3",
    "d515abf1c2492b28",
    "3c64f3cba15e0570",
    "277218731e48937b",
    "4ab320e35dfd43d3",
];

const CAMPAIGN: [&str; 16] = [
    "57569339bb34e6ff",
    "c45143a0c3385775",
    "dda813699895306b",
    "af512c18de9f2052",
    "fb7b076207637ad0",
    "264f517ef72d6f56",
    "408405e7807aca18",
    "4c990b840a33b881",
    "8b4d5882807a6d83",
    "3460c91ffd19d0c3",
    "76db84ce49e6e9c1",
    "4b44cdff4e8a7460",
    "3fa10716ff913289",
    "6b41abdb304787d9",
    "682535e799ecea90",
    "bd8c4a737a16d7a2",
];

pub fn ensemble(rep_seed: u64) -> &'static str {
    ENSEMBLE
        .get((rep_seed as usize).wrapping_sub(1))
        .copied()
        .unwrap_or("")
}

pub fn campaign(rep_seed: u64) -> &'static str {
    CAMPAIGN
        .get((rep_seed as usize).wrapping_sub(1))
        .copied()
        .unwrap_or("")
}

/// In-memory ensembles (bit-identical to the on-disk fold, which the
/// campaign checks rely on) over the whole pool, printed as the tables
/// above.
pub fn print_table(pool: u64, campaign_horizon: usize) -> Result<(), BoxError> {
    for (name, horizon) in [("ENSEMBLE", None), ("CAMPAIGN", Some(campaign_horizon))] {
        println!("const {name}: [&str; {pool}] = [");
        for rs in 1..=pool {
            let mut digest = Digest::new();
            for plan in ensemble_plans(rs) {
                let plan = match horizon {
                    Some(h) => plan.horizon(h),
                    None => plan,
                };
                ensemble_digest(&mut digest, &plan.run_ensembles()?);
            }
            println!("    \"{}\",", digest.hex());
        }
        println!("];\n");
    }
    Ok(())
}
