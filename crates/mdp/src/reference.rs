//! Reference MDPs with known solutions, used by tests and benches.

use crate::model::TabularMdp;

/// Action index that moves forward in [`chain`].
pub const CHAIN_FORWARD: usize = 1;

/// A two-state MDP with a closed-form optimal solution.
///
/// * State 0: action 0 stays (reward 0), action 1 moves to state 1 (reward 0).
/// * State 1: both actions stay in state 1 and collect reward 1.
///
/// With discount `γ`, `V*(1) = 1/(1−γ)` and `V*(0) = γ·V*(1)`; the optimal
/// action in state 0 is `1`.
///
/// Returns `(mdp, gamma)` with `gamma = 0.9`.
pub fn two_state() -> (TabularMdp, f64) {
    let mdp = TabularMdp::builder(2, 2)
        .transition(0, 0, 0, 1.0, 0.0)
        .transition(0, 1, 1, 1.0, 0.0)
        .transition(1, 0, 1, 1.0, 1.0)
        .transition(1, 1, 1, 1.0, 1.0)
        .build()
        // lint:allow(panic-hygiene): constant model, validated by its own tests.
        .expect("two_state reference model is valid");
    (mdp, 0.9)
}

/// A stochastic chain walk of `n ≥ 2` states.
///
/// Action [`CHAIN_FORWARD`] moves right with probability `p_forward` (slips
/// in place otherwise); action 0 moves left deterministically. Reaching the
/// right end collects reward 1 and the walker stays there collecting 1 per
/// slot; everything else costs 0. The unique optimal policy walks forward
/// everywhere.
///
/// Returns `(mdp, gamma)` with `gamma = 0.95`.
///
/// # Panics
///
/// Panics if `n < 2` or `p_forward ∉ (0, 1]`.
pub fn chain(n: usize, p_forward: f64) -> (TabularMdp, f64) {
    assert!(n >= 2, "chain needs at least 2 states");
    assert!(
        p_forward > 0.0 && p_forward <= 1.0,
        "p_forward must be in (0, 1]"
    );
    let mut b = TabularMdp::builder(n, 2);
    for s in 0..n {
        // Action 0: move left (or stay at the left wall).
        let left = s.saturating_sub(1);
        b = b.transition(s, 0, left, 1.0, 0.0);
        // Action 1: move right with p_forward, slip in place otherwise.
        if s == n - 1 {
            b = b.transition(s, 1, s, 1.0, 1.0);
        } else {
            let right = s + 1;
            let reward = if right == n - 1 { 1.0 } else { 0.0 };
            b = b.transition(s, 1, right, p_forward, reward);
            if p_forward < 1.0 {
                b = b.transition(s, 1, s, 1.0 - p_forward, 0.0);
            }
        }
    }
    (mdp_or_panic(b), 0.95)
}

/// A `w × h` gridworld with slip noise.
///
/// Actions 0–3 = up/down/left/right. Each move succeeds with probability
/// `1 − slip` and slides to one of the two perpendicular neighbours with
/// probability `slip/2` each (bumping a wall stays in place). Entering the
/// goal cell (top-right corner) collects reward 1 and teleports back to the
/// start (bottom-left corner); every step costs 0.01.
///
/// Returns `(mdp, gamma)` with `gamma = 0.95`. States are `y * w + x`.
///
/// # Panics
///
/// Panics if `w < 2`, `h < 2` or `slip ∉ [0, 1)`.
pub fn gridworld(w: usize, h: usize, slip: f64) -> (TabularMdp, f64) {
    assert!(w >= 2 && h >= 2, "gridworld needs at least 2x2 cells");
    assert!((0.0..1.0).contains(&slip), "slip must be in [0, 1)");
    let n = w * h;
    let goal = w - 1; // top-right at y=0
    let start = (h - 1) * w; // bottom-left
    let step = |x: usize, y: usize, a: usize| -> (usize, usize) {
        match a {
            0 => (x, y.saturating_sub(1)),
            1 => (x, (y + 1).min(h - 1)),
            2 => (x.saturating_sub(1), y),
            _ => ((x + 1).min(w - 1), y),
        }
    };
    let perpendicular = |a: usize| -> [usize; 2] {
        if a < 2 {
            [2, 3]
        } else {
            [0, 1]
        }
    };
    let mut b = TabularMdp::builder(n, 4);
    for y in 0..h {
        for x in 0..w {
            let s = y * w + x;
            for a in 0..4 {
                let mut outcomes: Vec<(usize, f64)> = Vec::new();
                let (nx, ny) = step(x, y, a);
                outcomes.push((ny * w + nx, 1.0 - slip));
                for pa in perpendicular(a) {
                    let (px, py) = step(x, y, pa);
                    outcomes.push((py * w + px, slip / 2.0));
                }
                // Merge duplicate destinations (wall bumps).
                outcomes.sort_by_key(|&(d, _)| d);
                outcomes.dedup_by(|b, a| {
                    if a.0 == b.0 {
                        a.1 += b.1;
                        true
                    } else {
                        false
                    }
                });
                for (dest, p) in outcomes {
                    if p <= 0.0 {
                        continue;
                    }
                    let (dest, reward) = if dest == goal {
                        (start, 1.0 - 0.01)
                    } else {
                        (dest, -0.01)
                    };
                    b = b.transition(s, a, dest, p, reward);
                }
            }
        }
    }
    (mdp_or_panic(b), 0.95)
}

fn mdp_or_panic(b: crate::model::TabularMdpBuilder) -> TabularMdp {
    match b.build() {
        Ok(m) => m,
        // lint:allow(panic-hygiene): reference models are compile-time constants;
        // a build failure is a programming error in this module, not a runtime one.
        Err(e) => panic!("reference model construction failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FiniteMdp;

    #[test]
    fn two_state_shape() {
        let (mdp, gamma) = two_state();
        assert_eq!(mdp.n_states(), 2);
        assert_eq!(mdp.n_actions(), 2);
        assert!(gamma < 1.0);
    }

    #[test]
    fn chain_rows_are_distributions() {
        let (mdp, _) = chain(6, 0.7);
        let mut buf = Vec::new();
        for s in 0..6 {
            for a in 0..2 {
                mdp.transitions(s, a, &mut buf);
                let mass: f64 = buf.iter().map(|t| t.probability).sum();
                assert!((mass - 1.0).abs() < 1e-12, "row ({s},{a}) mass {mass}");
            }
        }
    }

    #[test]
    fn chain_end_is_absorbing_and_rewarding() {
        let (mdp, _) = chain(4, 1.0);
        let mut buf = Vec::new();
        mdp.transitions(3, CHAIN_FORWARD, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].next, 3);
        assert_eq!(buf[0].reward, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 states")]
    fn chain_too_small_panics() {
        let _ = chain(1, 0.5);
    }

    #[test]
    fn gridworld_rows_are_distributions() {
        let (mdp, _) = gridworld(4, 4, 0.2);
        let mut buf = Vec::new();
        for s in 0..mdp.n_states() {
            for a in 0..4 {
                mdp.transitions(s, a, &mut buf);
                let mass: f64 = buf.iter().map(|t| t.probability).sum();
                assert!((mass - 1.0).abs() < 1e-9, "row ({s},{a}) mass {mass}");
            }
        }
    }

    #[test]
    fn gridworld_goal_pays_and_teleports() {
        let (mdp, _) = gridworld(3, 3, 0.0);
        // Cell left of the goal: moving right must land on start with the
        // goal reward.
        let mut buf = Vec::new();
        let left_of_goal = 1; // (x=1, y=0)
        mdp.transitions(left_of_goal, 3, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].next, 6); // start = bottom-left of 3x3
        assert!((buf[0].reward - 0.99).abs() < 1e-12);
    }
}
