//! The reconcile walk of an `LqtSync` soft-state refresh, shared by the
//! single server and the cluster coordinator.
//!
//! An `LqtSync` lists every query an object holds with its containment
//! bit (its *claims*); the server holds the object's result memberships.
//! Only a query the object claims or is a member of can change, and only
//! where claim and membership disagree. The walk merges the two ascending
//! lists once and yields exactly those queries, in ascending id — the
//! order result deltas go out in. Its buffers are reused across syncs, so
//! a sync allocates nothing once they have grown.
//!
//! A query claimed twice takes its last claim, and a query listed as a
//! member twice its last listing — what a `BTreeMap` built from the lists
//! keeps.

use crate::model::QueryId;

/// One query whose claim and membership disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip<H> {
    pub qid: QueryId,
    /// The claimed containment: `false` for a query the object does not
    /// mention, since it cannot be a target of a query it does not hold.
    pub is_target: bool,
    /// Whether the object mentions the query at all.
    pub claimed: bool,
    /// Where the object is a member — the home partition on a cluster —
    /// or `None` when it is not. Always `Some` exactly when `is_target`
    /// is `false`.
    pub member: Option<H>,
}

/// The reusable buffers of the walk: the claims, stable-sorted by query
/// id, and the memberships `(query, where)`, likewise.
#[derive(Debug, Default)]
pub struct LqtSyncScratch<H> {
    claims: Vec<(QueryId, bool)>,
    members: Vec<(QueryId, H)>,
}

impl<H: Copy> LqtSyncScratch<H> {
    /// The memberships buffer, emptied: the object's memberships go in
    /// here, in any order, before the [`walk`](Self::walk).
    pub fn members(&mut self) -> &mut Vec<(QueryId, H)> {
        self.members.clear();
        &mut self.members
    }

    /// Walks an `LqtSync`'s `entries` (in any order) against the loaded
    /// memberships: every query where the two disagree, once, ascending.
    pub fn walk(&mut self, entries: &[(QueryId, bool)]) -> Walk<'_, H> {
        self.claims.clear();
        self.claims.extend_from_slice(entries);
        self.claims.sort_by_key(|&(qid, _)| qid);
        self.members.sort_by_key(|&(qid, _)| qid);
        Walk {
            claims: &self.claims,
            members: &self.members,
        }
    }
}

/// The merge of sorted claims and memberships; see
/// [`LqtSyncScratch::walk`].
#[derive(Debug)]
pub struct Walk<'a, H> {
    claims: &'a [(QueryId, bool)],
    members: &'a [(QueryId, H)],
}

impl<H: Copy> Iterator for Walk<'_, H> {
    type Item = Flip<H>;

    fn next(&mut self) -> Option<Flip<H>> {
        loop {
            let qid = match (self.claims.first(), self.members.first()) {
                (None, None) => return None,
                (Some(c), None) => c.0,
                (None, Some(m)) => m.0,
                (Some(c), Some(m)) => c.0.min(m.0),
            };
            let claim = take_run(&mut self.claims, qid);
            let member = take_run(&mut self.members, qid);
            let is_target = claim.unwrap_or(false);
            if is_target != member.is_some() {
                return Some(Flip {
                    qid,
                    is_target,
                    claimed: claim.is_some(),
                    member,
                });
            }
        }
    }
}

/// Takes the rows of `qid` off the front of a sorted list, returning the
/// last one's value.
fn take_run<V: Copy>(rows: &mut &[(QueryId, V)], qid: QueryId) -> Option<V> {
    let run = rows.iter().take_while(|&&(q, _)| q == qid).count();
    let (taken, rest) = rows.split_at(run);
    *rows = rest;
    taken.last().map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The reconcile as it was written with ordered maps: every query in
    /// the union of claims and memberships, ascending, kept where claim
    /// and membership disagree.
    fn oracle(entries: &[(QueryId, bool)], members: &[(QueryId, u8)]) -> Vec<Flip<u8>> {
        let mentioned: BTreeMap<QueryId, bool> = entries.iter().copied().collect();
        let member_at: BTreeMap<QueryId, u8> = members.iter().copied().collect();
        let qids: BTreeSet<QueryId> = mentioned.keys().chain(member_at.keys()).copied().collect();
        qids.into_iter()
            .filter_map(|qid| {
                let is_target = mentioned.get(&qid).copied().unwrap_or(false);
                let member = member_at.get(&qid).copied();
                (is_target != member.is_some()).then_some(Flip {
                    qid,
                    is_target,
                    claimed: mentioned.contains_key(&qid),
                    member,
                })
            })
            .collect()
    }

    fn walk<H: Copy>(
        scratch: &mut LqtSyncScratch<H>,
        entries: &[(QueryId, bool)],
        members: impl IntoIterator<Item = (QueryId, H)>,
    ) -> Vec<Flip<H>> {
        scratch.members().extend(members);
        scratch.walk(entries).collect()
    }

    /// Seeded random claims and memberships over a small id space, so
    /// repeats and overlaps are common, unsorted as often as not: the
    /// walk yields exactly what the map-based reconcile did, with one
    /// scratch reused throughout.
    #[test]
    fn walk_matches_the_ordered_map_reconcile() {
        let mut rng = 31u64;
        let mut draw = |n: u64| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut scratch = LqtSyncScratch::default();
        let (mut flips, mut repeated) = (0, 0);
        for _ in 0..3_000 {
            let space = 1 + draw(12);
            let entries: Vec<(QueryId, bool)> = (0..draw(9))
                .map(|_| (QueryId(draw(space) as u32), draw(2) == 0))
                .collect();
            let mut members: Vec<(QueryId, u8)> = (0..draw(7))
                .map(|_| (QueryId(draw(space) as u32), draw(4) as u8))
                .collect();
            if draw(2) == 0 {
                members.sort_by_key(|m| m.0);
            }
            let ids: BTreeSet<QueryId> = entries.iter().map(|e| e.0).collect();
            repeated += usize::from(ids.len() < entries.len());
            let walked = walk(&mut scratch, &entries, members.iter().copied());
            assert_eq!(
                walked,
                oracle(&entries, &members),
                "{entries:?} / {members:?}"
            );
            flips += walked.len();
        }
        assert!(
            flips > 1_000 && repeated > 500,
            "{flips} flips, {repeated} repeats"
        );
    }

    #[test]
    fn a_sync_that_matches_the_memberships_walks_nothing() {
        let mut scratch = LqtSyncScratch::default();
        let entries = [(QueryId(4), true), (QueryId(2), false), (QueryId(9), true)];
        let members = [(QueryId(4), ()), (QueryId(9), ())];
        assert!(walk(&mut scratch, &entries, members).is_empty());
        assert!(walk(&mut scratch, &[], []).is_empty());
        let stale = walk(&mut scratch, &[], [(QueryId(3), ())]);
        assert_eq!(
            stale,
            vec![Flip {
                qid: QueryId(3),
                is_target: false,
                claimed: false,
                member: Some(())
            }]
        );
    }
}
