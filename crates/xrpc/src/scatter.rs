//! The carrier-independent core of a scatter round.
//!
//! The coordinator ([`crate::exec::Federation`]) fans a round of independent
//! `execute at` calls out the same way over simulated peers and over
//! sockets: slots grouped by destination, one scoped worker per distinct
//! destination running its slots in call order (a peer serves one request
//! at a time per connection/slot, so more workers per destination would
//! only queue), joined in group order, rows handed back in slot order. What a "delivery" is — a simulated failover
//! ladder over peer slots, or a wall-clock ladder over sockets — is the
//! caller's closure; what happens to the rows afterwards (accounting,
//! health observations, decoding into the coordinator store) is the
//! caller's gather, on the caller's thread, in slot order.

use crate::exec::panic_message;
use crate::net::XrpcError;

/// Slots of one round grouped by destination: `(peer, slot indices)` in
/// first-appearance order, each group's indices ascending (call order).
pub(crate) fn group_by_peer<'a>(peers: &[&'a str]) -> Vec<(&'a str, Vec<usize>)> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, &peer) in peers.iter().enumerate() {
        match groups.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((peer, vec![i])),
        }
    }
    groups
}

/// Runs `deliver(slot)` for every slot of `groups` — concurrently across
/// groups, in call order within one — and returns the rows in slot order.
///
/// A panicking worker must not kill the federation: exactly its group's
/// slots get `on_panic`'s row for a typed `xrpc:panic` remote fault, the
/// other groups' rows are unaffected.
pub(crate) fn fan_out<R: Send>(
    groups: &[(&str, Vec<usize>)],
    deliver: impl Fn(usize) -> R + Sync,
    on_panic: impl Fn(XrpcError) -> R,
) -> Vec<R> {
    let slot_count = groups.iter().map(|(_, idxs)| idxs.len()).sum();
    let mut slots: Vec<Option<R>> = (0..slot_count).map(|_| None).collect();
    std::thread::scope(|s| {
        let deliver = &deliver;
        let handles: Vec<_> = groups
            .iter()
            .map(|(_, idxs)| {
                s.spawn(move || idxs.iter().map(|&i| (i, deliver(i))).collect::<Vec<_>>())
            })
            .collect();
        for ((peer, idxs), handle) in groups.iter().zip(handles) {
            match handle.join() {
                Ok(rows) => {
                    for (i, row) in rows {
                        slots[i] = Some(row);
                    }
                }
                Err(payload) => {
                    let err = XrpcError::RemoteFault {
                        peer: peer.to_string(),
                        code: "xrpc:panic".to_string(),
                        message: format!(
                            "scatter worker panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    };
                    for &i in idxs {
                        slots[i] = Some(on_panic(err.clone()));
                    }
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot belongs to exactly one peer group"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_first_appearance_and_call_order() {
        let groups = group_by_peer(&["b", "a", "b", "c", "a"]);
        assert_eq!(
            groups,
            vec![("b", vec![0, 2]), ("a", vec![1, 4]), ("c", vec![3])]
        );
    }

    #[test]
    fn rows_come_back_in_slot_order() {
        let groups = group_by_peer(&["x", "y", "x", "z"]);
        let rows = fan_out(&groups, |i| Ok::<usize, XrpcError>(i * 10), Err);
        let rows: Vec<usize> = rows.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(rows, vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_panicking_worker_fails_exactly_its_group_with_a_typed_row() {
        let groups = group_by_peer(&["ok", "boom", "ok", "boom"]);
        let rows = fan_out(
            &groups,
            |i| {
                // the second `boom` slot panics: the whole `boom` group —
                // including its already-delivered first slot — is poisoned
                assert!(i != 3, "slot {i} exploded");
                Ok::<usize, XrpcError>(i)
            },
            Err,
        );
        assert_eq!(rows[0].as_ref().unwrap(), &0);
        assert_eq!(rows[2].as_ref().unwrap(), &2);
        for i in [1, 3] {
            match &rows[i] {
                Err(XrpcError::RemoteFault {
                    peer,
                    code,
                    message,
                }) => {
                    assert_eq!(peer, "boom");
                    assert_eq!(code, "xrpc:panic");
                    assert!(message.contains("slot 3 exploded"), "{message}");
                }
                other => panic!("slot {i}: expected an xrpc:panic row, got {other:?}"),
            }
        }
    }
}
