//! Round and message accounting.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether message sizes are bounded (CONGEST) or unbounded (LOCAL).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// The CONGEST model: each message carries at most `B` bits.
    Congest,
    /// The LOCAL model: message sizes are unbounded (but still recorded,
    /// so experiments can report how large they get).
    Local,
}

/// The communication model an execution runs under.
///
/// # Example
///
/// ```
/// use sdnd_congest::CostModel;
///
/// let cost = CostModel::congest_for(1024);
/// assert!(cost.fits(cost.bits_per_message()));
/// assert!(!cost.fits(cost.bits_per_message() + 1));
/// assert!(CostModel::local().fits(u32::MAX));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    mode: ExecutionMode,
    bits_per_message: u32,
}

impl CostModel {
    /// The CONGEST model with an explicit per-message budget `B`.
    pub fn congest(bits_per_message: u32) -> Self {
        CostModel {
            mode: ExecutionMode::Congest,
            bits_per_message,
        }
    }

    /// The standard CONGEST budget for an `n`-node network:
    /// `B = 4 ceil(log2 n) + 16` bits, enough for a constant number of
    /// identifiers/counters per message.
    pub fn congest_for(n: usize) -> Self {
        let b = crate::bits_for_value(n.max(2) as u64 - 1);
        Self::congest(4 * b + 16)
    }

    /// The LOCAL model (unbounded messages).
    pub fn local() -> Self {
        CostModel {
            mode: ExecutionMode::Local,
            bits_per_message: u32::MAX,
        }
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The per-message bit budget (`u32::MAX` in LOCAL mode).
    pub fn bits_per_message(&self) -> u32 {
        self.bits_per_message
    }

    /// Whether a message of `bits` bits fits the budget.
    pub fn fits(&self, bits: u32) -> bool {
        match self.mode {
            ExecutionMode::Congest => bits <= self.bits_per_message,
            ExecutionMode::Local => true,
        }
    }
}

/// Accumulated cost of a (partial) distributed execution.
///
/// Rounds compose *sequentially* by addition and *in parallel* by maximum
/// — disjoint components of the network run simultaneously. Message
/// counts and bits always add.
///
/// # Example
///
/// ```
/// use sdnd_congest::RoundLedger;
///
/// let mut total = RoundLedger::new();
/// total.charge_rounds(10);
///
/// // Two components running simultaneously: 7 and 4 rounds.
/// let mut a = RoundLedger::new();
/// a.charge_rounds(7);
/// let mut b = RoundLedger::new();
/// b.charge_rounds(4);
/// total.merge_parallel([a, b]);
///
/// assert_eq!(total.rounds(), 17);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundLedger {
    rounds: u64,
    messages: u64,
    total_bits: u64,
    max_message_bits: u32,
}

impl RoundLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `r` rounds of sequential execution.
    pub fn charge_rounds(&mut self, r: u64) {
        self.rounds += r;
    }

    /// Records `count` messages of `bits_each` bits (does not advance
    /// rounds; round structure is charged separately).
    pub fn record_messages(&mut self, count: u64, bits_each: u32) {
        if count == 0 {
            return;
        }
        self.messages += count;
        self.total_bits += count * bits_each as u64;
        self.max_message_bits = self.max_message_bits.max(bits_each);
    }

    /// Adds another ledger's message traffic without touching rounds.
    ///
    /// This is the charging primitive of the engine's sharded stepping
    /// lane: every shard of one round records its own traffic, and the
    /// shard ledgers are folded in index order under a single round
    /// structure. Message counts, bit totals, and the max-bits watermark
    /// are order-independent, which is what keeps the parallel lane's
    /// ledger bit-identical to the sequential lane's.
    pub fn merge_traffic(&mut self, other: &RoundLedger) {
        self.absorb_traffic(other);
    }

    /// Merges ledgers of branches that executed simultaneously
    /// (rounds take the maximum; traffic adds).
    pub fn merge_parallel<I>(&mut self, branches: I)
    where
        I: IntoIterator<Item = RoundLedger>,
    {
        let mut max_rounds = 0;
        for b in branches {
            max_rounds = max_rounds.max(b.rounds);
            self.absorb_traffic(&b);
        }
        self.rounds += max_rounds;
    }

    fn absorb_traffic(&mut self, other: &RoundLedger) {
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }

    /// Total rounds charged.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total message bits recorded.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// The largest single message recorded, in bits.
    pub fn max_message_bits(&self) -> u32 {
        self.max_message_bits
    }

    /// Whether every recorded message fit the budget of `cost`.
    ///
    /// This is the post-hoc CONGEST-compliance check used by the test
    /// suite on whole-algorithm executions.
    pub fn complies_with(&self, cost: &CostModel) -> bool {
        cost.fits(self.max_message_bits)
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits (max message {} bits)",
            self.rounds, self.messages, self.total_bits, self.max_message_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congest_budget_scales_with_n() {
        let small = CostModel::congest_for(16);
        let large = CostModel::congest_for(1 << 20);
        assert!(small.bits_per_message() < large.bits_per_message());
        assert_eq!(small.mode(), ExecutionMode::Congest);
    }

    #[test]
    fn local_fits_everything() {
        assert!(CostModel::local().fits(1 << 30));
    }

    #[test]
    fn parallel_merge_takes_max_rounds_and_sums_traffic() {
        let mut total = RoundLedger::new();
        total.charge_rounds(1);
        let mut a = RoundLedger::new();
        a.charge_rounds(10);
        a.record_messages(1, 4);
        let mut b = RoundLedger::new();
        b.charge_rounds(2);
        b.record_messages(3, 4);
        total.merge_parallel([a, b]);
        assert_eq!(total.rounds(), 11);
        assert_eq!(total.messages(), 4);
    }

    #[test]
    fn merge_traffic_leaves_rounds_alone() {
        let mut a = RoundLedger::new();
        a.charge_rounds(3);
        a.record_messages(2, 8);
        let mut b = RoundLedger::new();
        b.charge_rounds(99);
        b.record_messages(1, 16);
        a.merge_traffic(&b);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.total_bits(), 2 * 8 + 16);
        assert_eq!(a.max_message_bits(), 16);
    }

    #[test]
    fn empty_parallel_merge_is_noop() {
        let mut total = RoundLedger::new();
        total.charge_rounds(5);
        total.merge_parallel([]);
        assert_eq!(total.rounds(), 5);
    }

    #[test]
    fn compliance_check() {
        let cost = CostModel::congest(32);
        let mut l = RoundLedger::new();
        l.record_messages(1, 32);
        assert!(l.complies_with(&cost));
        l.record_messages(1, 33);
        assert!(!l.complies_with(&cost));
        assert!(l.complies_with(&CostModel::local()));
    }

    #[test]
    fn zero_count_messages_ignored() {
        let mut l = RoundLedger::new();
        l.record_messages(0, 999);
        assert_eq!(l.max_message_bits(), 0);
        assert_eq!(l.messages(), 0);
    }
}
