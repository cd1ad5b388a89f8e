//! The coordinator's write-ahead round journal.
//!
//! A [`RoundJournal`] is the coordinator's only durable state and its only
//! owner: an append-only byte log of [`JournalRecord`]s, each encoded as a
//! CRC32-framed [`fei_net::codec`] frame under the journal tag space
//! (`0x20..`) with the same leading protocol-version byte as the control
//! plane, plus the [`JournalState`] those records fold to. The coordinator
//! builds a record, the journal appends then folds it, and the coordinator
//! reads the result back ([`RoundJournal::state`]); the fold is the only
//! code that changes journaled state, so no transition can outrun its
//! record and a crash between any two ticks loses nothing acknowledged.
//!
//! Recovery is that same fold over the adopted log (a torn tail from a
//! crash mid-append is cut off cleanly). It is deterministic and
//! idempotent: folding a journal twice — or a journal in which any record
//! was duplicated — produces the same state, so recovery composes with the
//! at-least-once semantics of any real log device.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::ProtoError;
use crate::frames::AbortReason;
use crate::record::{record_table, scan};

record_table! {
    /// One durable state transition of the coordinator.
    pub enum JournalRecord;
    /// Every journal tag, in value order — the journal part of the tag table
    /// documented in [`crate::frames`].
    pub const JOURNAL_TAGS;

    /// Journal tag space: a new coordinator epoch began (fresh start or
    /// recovery).
    0x20 pub(crate) TAG_EPOCH_STARTED =>
    /// A coordinator incarnation began (epoch 0 is the first boot; each
    /// recovery bumps it).
    EpochStarted {
        /// The incarnation number.
        epoch: u64,
        /// Tick the incarnation started.
        tick: u64,
    },
    /// A client joined the roster.
    0x21 pub(crate) TAG_CLIENT_JOINED =>
    /// `client` joined the roster.
    ClientJoined {
        /// The joined client id.
        client: u64,
        /// Tick of the join.
        tick: u64,
    },
    /// A client's heartbeat lease lapsed and it left the roster.
    0x22 pub(crate) TAG_CLIENT_EXPIRED =>
    /// `client`'s lease lapsed; it left the roster.
    ClientExpired {
        /// The expired client id.
        client: u64,
        /// Tick of the expiry.
        tick: u64,
    },
    /// A round opened with a selection set and a deadline.
    0x23 pub(crate) TAG_ROUND_OPENED =>
    /// A round opened.
    RoundOpened {
        /// The opened round.
        round: u64,
        /// Absolute submission deadline tick.
        deadline_tick: u64,
        /// Tick the round opened.
        tick: u64,
        /// Selected clients, ascending.
        selected: Vec<u64>,
    },
    /// An update was accepted into the open round's buffer.
    0x24 pub(crate) TAG_UPDATE_ACCEPTED =>
    /// An update entered the open round's buffer.
    UpdateAccepted {
        /// The round the update belongs to.
        round: u64,
        /// The submitting client.
        client: u64,
        /// Aggregation weight (local sample count).
        samples: u32,
        /// Arrival tick.
        tick: u64,
        /// The wire-v2 update payload, byte for byte.
        update: Vec<u8>,
    },
    /// The open round committed.
    0x25 pub(crate) TAG_ROUND_COMMITTED =>
    /// The open round committed.
    RoundCommitted {
        /// The committed round.
        round: u64,
        /// Commit tick.
        tick: u64,
        /// Aggregated clients, ascending.
        accepted: Vec<u64>,
    },
    /// The open round aborted.
    0x26 pub(crate) TAG_ROUND_ABORTED =>
    /// The open round aborted.
    RoundAborted {
        /// The aborted round.
        round: u64,
        /// Why.
        reason: AbortReason,
        /// Abort tick.
        tick: u64,
    },
}

/// The append-only write-ahead log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundJournal {
    bytes: Vec<u8>,
    /// What the records in `bytes` fold to.
    state: JournalState,
    /// Torn trailing bytes dropped when the log was adopted.
    torn_bytes: usize,
}

/// What [`RoundJournal::replay`] recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of a torn trailing record cut off by a crash mid-append
    /// (zero on a clean log).
    pub torn_bytes: usize,
}

impl RoundJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an existing durable log (e.g. the bytes that survived a
    /// coordinator crash). A torn trailing record is dropped here, so
    /// appends extend the valid prefix; [`RoundJournal::replay`] still
    /// reports how many bytes were cut. A log corrupt mid-way is kept
    /// whole, for `replay` to reject.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::adopt(&bytes).unwrap_or_else(|_| Self {
            bytes,
            ..Self::default()
        })
    }

    /// [`RoundJournal::from_bytes`] that rejects a corrupt log: the journal
    /// over the valid prefix of `bytes`, its records folded.
    ///
    /// # Errors
    ///
    /// As [`RoundJournal::replay`].
    pub(crate) fn adopt(bytes: &[u8]) -> Result<Self, ProtoError> {
        let (records, torn_bytes) = scan(bytes, JournalRecord::decode)?;
        let mut journal = Self {
            bytes: bytes[..bytes.len() - torn_bytes].to_vec(),
            torn_bytes,
            state: JournalState::default(),
        };
        for record in records {
            journal.state.apply(record);
        }
        Ok(journal)
    }

    /// Appends one record; the write is the transition's durability point.
    pub fn append(&mut self, record: &JournalRecord) {
        self.record(record.clone());
    }

    /// [`RoundJournal::append`] by value: encode-append, then fold the
    /// record (its payload moved, not copied) into [`RoundJournal::state`].
    pub(crate) fn record(&mut self, record: JournalRecord) {
        record.encode_into(&mut self.bytes);
        self.state.apply(record);
    }

    /// What every record appended or adopted so far folds to.
    pub fn state(&self) -> &JournalState {
        &self.state
    }

    /// The durable log, byte for byte.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The durable log, by value.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total log size, bytes.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes the log back into records. A truncated trailing frame — the
    /// signature of a crash mid-append — is cut off cleanly and reported in
    /// [`JournalReplay::torn_bytes`]; any other malformation (CRC failure,
    /// foreign tag or version) is a hard error, because it means the log
    /// device corrupted acknowledged writes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Codec`], [`ProtoError::UnknownFrameType`], or
    /// [`ProtoError::VersionMismatch`] on mid-log corruption.
    pub fn replay(&self) -> Result<JournalReplay, ProtoError> {
        let (records, _) = scan(&self.bytes, JournalRecord::decode)?;
        Ok(JournalReplay {
            records,
            torn_bytes: self.torn_bytes,
        })
    }
}

/// The in-flight round, as the journal describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRound {
    /// The round number.
    pub round: u64,
    /// Selected clients.
    pub selected: BTreeSet<u64>,
    /// Absolute submission deadline tick.
    pub deadline_tick: u64,
    /// Tick the round opened.
    pub opened_at: u64,
    /// Buffered updates: client → (samples, payload).
    pub updates: BTreeMap<u64, (u32, Vec<u8>)>,
    /// Arrival order of the buffered updates: `(tick, client)`.
    pub arrivals: Vec<(u64, u64)>,
}

/// Coordinator state folded out of journal records — what the live
/// coordinator reads and what a recovered one starts from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalState {
    /// The last incarnation recorded (0 when the log is empty).
    pub epoch: u64,
    /// Clients joined and not expired, ascending.
    pub roster: BTreeSet<u64>,
    /// The round the coordinator is at (the open round's number, or one
    /// past the last closed round).
    pub next_round: u64,
    /// The round in flight, if any.
    pub open_round: Option<OpenRound>,
    /// The committed payload set: the buffer of the round the last
    /// `RoundCommitted` closed, cut down to its `accepted` list; emptied
    /// when the next round opens.
    pub committed: BTreeMap<u64, (u32, Vec<u8>)>,
}

impl JournalState {
    /// Folds records into state. The fold is idempotent per record:
    /// duplicated records (an at-least-once log device) produce the same
    /// state as the originals.
    pub fn from_records(records: &[JournalRecord]) -> JournalState {
        let mut state = JournalState::default();
        for record in records {
            state.apply(record.clone());
        }
        state
    }

    /// The one mutator of journaled state, live and in recovery.
    fn apply(&mut self, record: JournalRecord) {
        match record {
            JournalRecord::EpochStarted { epoch, .. } => {
                self.epoch = epoch.max(self.epoch);
            }
            JournalRecord::ClientJoined { client, .. } => {
                self.roster.insert(client);
            }
            JournalRecord::ClientExpired { client, .. } => {
                self.roster.remove(&client);
                // Safety invariant: an expired client's update never
                // survives to aggregation, even if it rejoins in time.
                if let Some(open) = self.open_round.as_mut() {
                    open.updates.remove(&client);
                    open.arrivals.retain(|&(_, c)| c != client);
                }
            }
            JournalRecord::RoundOpened {
                round,
                deadline_tick,
                tick,
                selected,
            } => {
                // Re-opening the already-open round is a duplicate; a new
                // round supersedes (its predecessor must have closed, but a
                // torn verdict record makes the open marker authoritative).
                if self.open_round.as_ref().is_some_and(|o| o.round == round) {
                    return;
                }
                self.open_round = Some(OpenRound {
                    round,
                    selected: selected.into_iter().collect(),
                    deadline_tick,
                    opened_at: tick,
                    updates: BTreeMap::new(),
                    arrivals: Vec::new(),
                });
                self.committed.clear();
                self.next_round = self.next_round.max(round);
            }
            JournalRecord::UpdateAccepted {
                round,
                client,
                samples,
                tick,
                update,
            } => {
                if let Some(open) = self.open_round.as_mut() {
                    if open.round == round && !open.updates.contains_key(&client) {
                        open.updates.insert(client, (samples, update));
                        open.arrivals.push((tick, client));
                    }
                }
            }
            JournalRecord::RoundCommitted {
                round, accepted, ..
            } => {
                if let Some(open) = self.open_round.take_if(|o| o.round == round) {
                    self.committed = open.updates;
                    self.committed.retain(|client, _| accepted.contains(client));
                }
                self.next_round = self.next_round.max(round + 1);
            }
            JournalRecord::RoundAborted { round, .. } => {
                self.open_round.take_if(|o| o.round == round);
                self.next_round = self.next_round.max(round + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::EpochStarted { epoch: 0, tick: 0 },
            JournalRecord::ClientJoined { client: 3, tick: 1 },
            JournalRecord::ClientJoined { client: 1, tick: 2 },
            JournalRecord::ClientJoined { client: 7, tick: 2 },
            JournalRecord::ClientExpired {
                client: 7,
                tick: 30,
            },
            JournalRecord::RoundOpened {
                round: 0,
                deadline_tick: 50,
                tick: 10,
                selected: vec![1, 3],
            },
            JournalRecord::UpdateAccepted {
                round: 0,
                client: 3,
                samples: 12,
                tick: 14,
                update: vec![9, 9, 9],
            },
            JournalRecord::RoundCommitted {
                round: 0,
                tick: 20,
                accepted: vec![3],
            },
            JournalRecord::RoundOpened {
                round: 1,
                deadline_tick: 90,
                tick: 40,
                selected: vec![1, 3],
            },
            JournalRecord::UpdateAccepted {
                round: 1,
                client: 1,
                samples: 5,
                tick: 44,
                update: vec![1, 2],
            },
        ]
    }

    fn journal_of(records: &[JournalRecord]) -> RoundJournal {
        let mut journal = RoundJournal::new();
        for record in records {
            journal.append(record);
        }
        journal
    }

    #[test]
    fn every_record_round_trips() {
        for record in sample_records() {
            let bytes = record.encode();
            let (decoded, consumed) = JournalRecord::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} failed: {e}", record.name()));
            assert_eq!(decoded, record);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn replay_recovers_the_append_order() {
        let records = sample_records();
        let journal = journal_of(&records);
        let replay = journal.replay().expect("clean log");
        assert_eq!(replay.records, records);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_cut_cleanly() {
        let records = sample_records();
        let journal = journal_of(&records);
        // A crash mid-append leaves a partial trailing frame.
        let torn = RoundJournal::from_bytes(journal.bytes()[..journal.len() - 5].to_vec());
        let replay = torn.replay().expect("torn tail is not corruption");
        assert_eq!(replay.records.len(), records.len() - 1);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let journal = journal_of(&sample_records());
        let mut bytes = journal.bytes().to_vec();
        // Flip a byte inside the first record's payload.
        bytes[9] ^= 0xFF;
        let corrupt = RoundJournal::from_bytes(bytes);
        assert!(corrupt.replay().is_err());
    }

    #[test]
    fn state_fold_reconstructs_roster_and_open_round() {
        let state = JournalState::from_records(&sample_records());
        assert_eq!(state.epoch, 0);
        assert_eq!(state.roster.iter().copied().collect::<Vec<_>>(), vec![1, 3]);
        let open = state.open_round.expect("round 1 was in flight");
        assert_eq!(open.round, 1);
        assert_eq!(open.deadline_tick, 90);
        assert_eq!(open.updates.len(), 1);
        assert_eq!(open.arrivals, vec![(44, 1)]);
        assert_eq!(state.next_round, 1);
    }

    #[test]
    fn closed_rounds_advance_next_round() {
        let mut records = sample_records();
        records.push(JournalRecord::RoundAborted {
            round: 1,
            reason: AbortReason::CoordinatorCrash,
            tick: 60,
        });
        let state = JournalState::from_records(&records);
        assert!(state.open_round.is_none());
        assert_eq!(state.next_round, 2);
    }

    #[test]
    fn an_expiry_voids_the_buffered_update_even_if_the_client_rejoins() {
        let records = [
            JournalRecord::RoundOpened {
                round: 0,
                deadline_tick: 50,
                tick: 0,
                selected: vec![1, 2],
            },
            JournalRecord::UpdateAccepted {
                round: 0,
                client: 2,
                samples: 4,
                tick: 5,
                update: vec![7],
            },
            JournalRecord::ClientExpired {
                client: 2,
                tick: 20,
            },
            JournalRecord::ClientJoined {
                client: 2,
                tick: 25,
            },
        ];
        let journal = journal_of(&records);
        let open = journal.state().open_round.as_ref().expect("still open");
        assert!(!open.updates.contains_key(&2));
        assert!(open.arrivals.is_empty());
        assert!(journal.state().roster.contains(&2));
        // The journal's own fold is the public one.
        assert_eq!(journal.state(), &JournalState::from_records(&records));
    }

    #[test]
    fn a_commit_leaves_exactly_the_accepted_payloads() {
        let mut records = sample_records();
        records.push(JournalRecord::UpdateAccepted {
            round: 1,
            client: 3,
            samples: 2,
            tick: 45,
            update: vec![8],
        });
        records.push(JournalRecord::RoundCommitted {
            round: 1,
            tick: 46,
            accepted: vec![3],
        });
        let state = JournalState::from_records(&records);
        assert!(state.open_round.is_none());
        assert_eq!(state.committed, BTreeMap::from([(3, (2, vec![8]))]));
        records.push(JournalRecord::RoundOpened {
            round: 2,
            deadline_tick: 99,
            tick: 50,
            selected: vec![1],
        });
        assert!(JournalState::from_records(&records).committed.is_empty());
    }

    #[test]
    fn fold_is_idempotent_under_per_record_duplication() {
        let records = sample_records();
        let mut duplicated = Vec::new();
        for record in &records {
            duplicated.push(record.clone());
            duplicated.push(record.clone());
        }
        assert_eq!(
            JournalState::from_records(&records),
            JournalState::from_records(&duplicated)
        );
    }
}
