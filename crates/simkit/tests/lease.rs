//! Lease-protocol suite: claim arbitration, expiry takeover, heartbeat
//! liveness and loss detection — the invariants the distributed campaign
//! runner builds on.

use simkit::lease::{claim, claim_at, inspect, wall_ms, Claim, Heartbeat, LeaseError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique scratch directory per call (no tempfile crate in the offline
/// workspace); removed by each test on success.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("simkit-lease-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TTL: Duration = Duration::from_secs(30);

#[test]
fn claim_release_roundtrip() {
    let dir = scratch("roundtrip");
    let path = dir.join("cell.lease");

    let guard = match claim(&path, "w1", TTL).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    assert_eq!(guard.owner(), "w1");
    assert_eq!(guard.heartbeat(), 0);

    let info = inspect(&path).unwrap().expect("lease file readable");
    assert_eq!(info.owner, "w1");
    assert_eq!(info.heartbeat, 0);
    assert_eq!(info.ttl_ms, TTL.as_millis() as u64);
    assert!(!info.expired_at(wall_ms()));

    guard.release().unwrap();
    assert!(!path.exists(), "release must delete the lease file");
    assert_eq!(inspect(&path).unwrap(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_lease_blocks_second_claimant() {
    let dir = scratch("held");
    let path = dir.join("cell.lease");

    let guard = match claim(&path, "w1", TTL).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    match claim(&path, "w2", TTL).unwrap() {
        Claim::Held { owner, age_ms } => {
            assert_eq!(owner.as_deref(), Some("w1"));
            assert!(age_ms < TTL.as_millis() as u64);
        }
        other => panic!("expected Held, got {other:?}"),
    }
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `create_new` arbitrates racing claims: exactly one of N concurrent
/// claimants acquires, all others observe the winner's live lease.
#[test]
fn racing_claims_elect_exactly_one_winner() {
    let dir = scratch("race");
    let path = dir.join("cell.lease");
    const N: usize = 8;

    let barrier = std::sync::Barrier::new(N);
    let outcomes: Vec<Claim> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|k| {
                let path = &path;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    claim(path, &format!("w{k}"), TTL).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let winners: Vec<&Claim> = outcomes
        .iter()
        .filter(|c| matches!(c, Claim::Acquired(_)))
        .collect();
    assert_eq!(winners.len(), 1, "exactly one claimant must win");
    let winner_owner = match winners[0] {
        Claim::Acquired(g) => g.owner().to_string(),
        _ => unreachable!(),
    };
    for outcome in &outcomes {
        // Losers may have read the file mid-write (owner None under the
        // partial-write grace) but never see a *different* owner.
        if let Claim::Held { owner: Some(o), .. } = outcome {
            assert_eq!(*o, winner_owner);
        }
    }
    drop(outcomes); // releases the winner's guard
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A SIGKILLed worker leaves its lease behind; once the TTL elapses any
/// other worker takes the cell over. Simulated without sleeping by
/// claiming in the past (`claim_at`) and abandoning the guard.
#[test]
fn expired_lease_is_taken_over() {
    let dir = scratch("expiry");
    let path = dir.join("cell.lease");
    let ttl = Duration::from_millis(1_000);

    let t0 = wall_ms();
    match claim_at(&path, "dead-worker", ttl, t0).unwrap() {
        Claim::Acquired(g) => g.abandon(), // file stays behind, like SIGKILL
        other => panic!("expected Acquired, got {other:?}"),
    }
    assert!(path.exists(), "abandon must leave the lease file");

    // Within the TTL the stale lease still blocks.
    match claim_at(&path, "w2", ttl, t0 + 500).unwrap() {
        Claim::Held { owner, .. } => assert_eq!(owner.as_deref(), Some("dead-worker")),
        other => panic!("expected Held inside TTL, got {other:?}"),
    }

    // Past the TTL the claim goes through (tombstone rename + re-create).
    let guard = match claim_at(&path, "w2", ttl, t0 + 1_001 + 1).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected takeover past TTL, got {other:?}"),
    };
    assert_eq!(inspect(&path).unwrap().unwrap().owner, "w2");
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A heartbeat keeper refreshes faster than the TTL, so a slow cell stays
/// claimed well past its nominal TTL.
#[test]
fn heartbeat_keeps_slow_cell_claimed() {
    let dir = scratch("heartbeat");
    let path = dir.join("cell.lease");
    let ttl = Duration::from_millis(300);

    let guard = match claim(&path, "w1", ttl).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    let keeper = Heartbeat::keep(vec![guard], Duration::from_millis(50));

    // Poll well past the TTL: the lease must stay held the whole time.
    let deadline = std::time::Instant::now() + Duration::from_millis(900);
    while std::time::Instant::now() < deadline {
        match claim(&path, "w2", ttl).unwrap() {
            Claim::Held { owner, .. } => {
                if let Some(o) = owner {
                    assert_eq!(o, "w1");
                }
            }
            Claim::Acquired(_) => panic!("heartbeated lease must never expire"),
        }
        std::thread::sleep(Duration::from_millis(60));
    }

    let mut guards = keeper.stop();
    assert_eq!(guards.len(), 1, "keeper must return the surviving guard");
    let guard = guards.pop().unwrap();
    assert!(
        guard.heartbeat() >= 3,
        "expected several refreshes, got {}",
        guard.heartbeat()
    );
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A holder that stalls past its TTL loses the lease; refresh and release
/// both detect the takeover instead of clobbering the new holder's file.
#[test]
fn refresh_and_release_detect_takeover() {
    let dir = scratch("lost");
    let path = dir.join("cell.lease");
    let ttl = Duration::from_millis(1_000);

    let t0 = wall_ms();
    let mut stalled = match claim_at(&path, "w1", ttl, t0).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    // w2 notices the expiry (from its clock's point of view) and steals.
    let thief = match claim_at(&path, "w2", ttl, t0 + 2_000).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected takeover, got {other:?}"),
    };

    assert_eq!(
        stalled.refresh_at(t0 + 2_000),
        Err(LeaseError::Lost {
            current_owner: Some("w2".to_string())
        })
    );
    // The guard is defused: dropping it must not delete w2's lease.
    drop(stalled);
    assert_eq!(inspect(&path).unwrap().unwrap().owner, "w2");

    thief.release().unwrap();
    assert!(!path.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn release_after_takeover_reports_lost() {
    let dir = scratch("lost-release");
    let path = dir.join("cell.lease");
    let ttl = Duration::from_millis(1_000);

    let t0 = wall_ms();
    let stalled = match claim_at(&path, "w1", ttl, t0).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    let thief = match claim_at(&path, "w2", ttl, t0 + 2_000).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected takeover, got {other:?}"),
    };
    assert_eq!(
        stalled.release(),
        Err(LeaseError::Lost {
            current_owner: Some("w2".to_string())
        })
    );
    assert_eq!(inspect(&path).unwrap().unwrap().owner, "w2");
    thief.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An unreadable (empty / torn) lease file inside the partial-write grace
/// window reads as *held*, not abandoned: the writer may still be between
/// `create_new` and its first write.
#[test]
fn torn_lease_file_is_held_within_grace() {
    let dir = scratch("torn");
    let path = dir.join("cell.lease");
    std::fs::write(&path, "").unwrap(); // fresh mtime, unparsable content

    match claim(&path, "w1", TTL).unwrap() {
        Claim::Held { owner, age_ms } => {
            assert_eq!(owner, None);
            assert_eq!(age_ms, 0);
        }
        other => panic!("expected Held under grace, got {other:?}"),
    }
    assert_eq!(inspect(&path).unwrap(), None, "unparsable reads as None");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Refresh bumps the monotone heartbeat counter and re-stamps the file.
#[test]
fn refresh_bumps_heartbeat_monotonically() {
    let dir = scratch("monotone");
    let path = dir.join("cell.lease");

    let t0 = wall_ms();
    let mut guard = match claim_at(&path, "w1", TTL, t0).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    for k in 1..=3u64 {
        guard.refresh_at(t0 + k).unwrap();
        let info = inspect(&path).unwrap().unwrap();
        assert_eq!(info.heartbeat, k);
        assert_eq!(info.stamp_ms, t0 + k);
        assert_eq!(guard.heartbeat(), k);
    }
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Owner ids are free-form and may contain spaces (they are the remainder
/// of the lease line).
#[test]
fn owner_ids_may_contain_spaces() {
    let dir = scratch("spaces");
    let path = dir.join("cell.lease");
    let owner = "host-3 pid 4242 (restarted)";

    let guard = match claim(&path, owner, TTL).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    assert_eq!(inspect(&path).unwrap().unwrap().owner, owner);
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A backwards wall-clock step between refreshes must not rewind the
/// on-disk stamp: observers would otherwise see a live lease as
/// instantly expired.
#[test]
fn backwards_clock_step_does_not_rewind_the_stamp() {
    let dir = scratch("skew");
    let path = dir.join("cell.lease");
    let t0 = wall_ms();
    let ttl = Duration::from_millis(1_000);

    let mut guard = match claim_at(&path, "w1", ttl, t0).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    // The holder's clock steps 900 ms backwards mid-campaign (NTP slew,
    // VM migration). The refresh still bumps the heartbeat, but the
    // written stamp stays monotone.
    guard.refresh_at(t0 - 900).unwrap();
    let info = inspect(&path).unwrap().expect("lease readable");
    assert_eq!(info.heartbeat, 1);
    assert_eq!(
        info.stamp_ms, t0,
        "a backwards clock step must not rewind the stamp"
    );
    // An observer half a TTL later sees the lease as live — before the
    // fix the rewound stamp made it look 1.4 TTLs old and stealable.
    match claim_at(&path, "w2", ttl, t0 + 500).unwrap() {
        Claim::Held { owner, .. } => assert_eq!(owner.as_deref(), Some("w1")),
        other => panic!("expected Held, got {other:?}"),
    }
    guard.release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A claimant whose clock runs far ahead sees every stamp as expired —
/// the monotone heartbeat counter is the clock-free tiebreak: if the
/// counter advances across the confirmation grace, the holder is alive
/// and the lease must not be stolen.
#[test]
fn advancing_heartbeat_defeats_expired_stamp_takeover() {
    let dir = scratch("skew-steal");
    let path = dir.join("cell.lease");
    let t0 = wall_ms();
    let ttl = Duration::from_millis(1_000);

    let guard = match claim_at(&path, "slow", ttl, t0).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    // A live holder refreshing on a 5 ms cadence.
    let refresher = std::thread::spawn(move || {
        let mut guard = guard;
        for _ in 0..100 {
            guard.refresh().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        guard
    });
    // A thief whose clock is a minute ahead: every stamp looks expired,
    // but the heartbeat advances across the confirmation grace.
    match claim_at(&path, "thief", ttl, t0 + 60_000).unwrap() {
        Claim::Held { owner, .. } => assert_eq!(owner.as_deref(), Some("slow")),
        Claim::Acquired(_) => panic!("a live lease was stolen on stamp evidence alone"),
    }
    refresher.join().unwrap().release().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The campaign engine's cadence: a TTL-1 s lease kept alive by a
/// [`Heartbeat`] refreshing every TTL/3. A claimant whose clock runs a
/// minute ahead sees the stamp as expired on every try, but the
/// confirmation grace outlasts the keeper's refresh period, so the counter
/// always advances across it and the live lease is never stolen.
#[test]
fn keeper_held_lease_survives_a_skewed_claimant() {
    let dir = scratch("skew-keeper");
    let path = dir.join("cell.lease");
    let ttl = Duration::from_millis(1_000);
    let guard = match claim(&path, "holder", ttl).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    let keeper = Heartbeat::keep(vec![guard], ttl / 3);
    for attempt in 0..3 {
        match claim_at(&path, "thief", ttl, wall_ms() + 60_000).unwrap() {
            Claim::Held { owner, .. } => assert_eq!(owner.as_deref(), Some("holder")),
            Claim::Acquired(_) => panic!("attempt {attempt}: a keeper-held lease was stolen"),
        }
    }
    let survivors = keeper.stop();
    assert_eq!(survivors.len(), 1, "the holder must keep its lease");
    for guard in survivors {
        guard.release().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sub-3 ms TTL makes the TTL/3 refresh interval round to zero; the
/// keeper must clamp it to a real interval instead of busy-spinning on
/// `sleep(0)`.
#[test]
fn zero_interval_keeper_is_clamped_not_busy_spun() {
    use simkit::lease::{keeper_interval, MIN_REFRESH_INTERVAL};
    assert_eq!(keeper_interval(Duration::ZERO), MIN_REFRESH_INTERVAL);
    assert!(MIN_REFRESH_INTERVAL > Duration::ZERO);
    assert_eq!(
        keeper_interval(Duration::from_secs(5)),
        Duration::from_secs(5)
    );

    let dir = scratch("clamp");
    let path = dir.join("cell.lease");
    let guard = match claim(&path, "w1", Duration::from_millis(2)).unwrap() {
        Claim::Acquired(g) => g,
        other => panic!("expected Acquired, got {other:?}"),
    };
    // Degenerate interval straight from a sub-3 ms TTL/3: the keeper must
    // still refresh (liveness) and stop cleanly (no spin wedging the
    // stop flag).
    let keeper = Heartbeat::keep(vec![guard], Duration::ZERO);
    std::thread::sleep(Duration::from_millis(100));
    let survivors = keeper.stop();
    assert_eq!(survivors.len(), 1, "the lease must survive its keeper");
    assert!(
        survivors[0].heartbeat() >= 1,
        "a clamped keeper still refreshes"
    );
    for guard in survivors {
        guard.release().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
