//! Concurrent writers must never produce torn events: the seqlock slots
//! either deliver all six words of one `record()` call or drop the slot
//! from the snapshot. Each recorded payload carries an arithmetic
//! relation between its words; any mixed-up slot breaks it. Runs in its
//! own test binary because the enabled recorder is process-global.

use cpo_obs::flight::{self, FlightKind, CAPACITY};

/// Payload relation: every event written by the hammer satisfies
/// `a == key * 10 + 1` and `b == key * 10 + 2`. A torn read mixing words
/// from two different writes violates at least one equation.
fn hammer(events_per_thread: u64, threads: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..events_per_thread {
                    let key = t * events_per_thread + i;
                    flight::record(FlightKind::Marker, key, key, key * 10 + 1, key * 10 + 2);
                }
            });
        }
    });
}

#[test]
fn concurrent_writes_are_never_torn() {
    flight::enable();
    flight::reset();

    // Phase 1: fewer events than capacity — everything survives.
    let threads = 8u64;
    let per_thread = (CAPACITY as u64 / threads) / 2;
    hammer(per_thread, threads);
    let snap = flight::snapshot();
    assert_eq!(snap.recorded, per_thread * threads);
    assert_eq!(snap.events.len() as u64, snap.recorded);
    assert_eq!(snap.overwritten, 0);
    let mut seen = vec![false; (per_thread * threads) as usize];
    let mut last_ticket = None;
    for e in &snap.events {
        assert_eq!(e.a, e.key * 10 + 1, "torn event: {e:?}");
        assert_eq!(e.b, e.key * 10 + 2, "torn event: {e:?}");
        assert_eq!(e.tenant, e.key, "torn event: {e:?}");
        assert!(!seen[e.key as usize], "key {} delivered twice", e.key);
        seen[e.key as usize] = true;
        if let Some(last) = last_ticket {
            assert!(e.ticket > last, "tickets must be strictly increasing");
        }
        last_ticket = Some(e.ticket);
    }
    assert!(seen.iter().all(|&s| s), "every write must be retrievable");

    // Phase 2: overflow the ring — oldest events are overwritten, the
    // survivors still honour the payload relation and total order.
    flight::reset();
    let per_thread = (CAPACITY as u64 / threads) * 3;
    hammer(per_thread, threads);
    let snap = flight::snapshot();
    assert_eq!(snap.recorded, per_thread * threads);
    assert!(
        snap.overwritten >= snap.recorded - CAPACITY as u64,
        "a full ring keeps at most CAPACITY events"
    );
    assert!(
        !snap.events.is_empty() && snap.events.len() <= CAPACITY,
        "snapshot size {} out of range",
        snap.events.len()
    );
    let mut last_ticket = None;
    for e in &snap.events {
        assert_eq!(e.a, e.key * 10 + 1, "torn event after wrap: {e:?}");
        assert_eq!(e.b, e.key * 10 + 2, "torn event after wrap: {e:?}");
        if let Some(last) = last_ticket {
            assert!(e.ticket > last, "tickets must stay ordered after wrap");
        }
        last_ticket = Some(e.ticket);
    }
    flight::disable();
}
