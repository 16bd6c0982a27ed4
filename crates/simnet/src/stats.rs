//! Message accounting.
//!
//! The paper's efficiency claims are message-complexity claims, so the
//! simulator counts every send: total, by kind, by locality, and by sender.

use std::fmt;

use crate::fault::FaultStats;

/// Counters for one message kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Messages between distinct processors.
    pub remote: u64,
    /// Messages a processor sent to itself (local queue hand-offs).
    pub local: u64,
    /// Sum of payload `size_hint`s for remote messages.
    pub remote_bytes: u64,
}

impl KindStats {
    /// Remote + local count.
    pub fn total(&self) -> u64 {
        self.remote + self.local
    }
}

/// Aggregated network statistics for a run.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Touched once per send. Kinds are a small closed set of static
    /// strings and consecutive sends repeat them, so a tiny vector with a
    /// last-hit cache beats hashing the string every time; every read that
    /// exposes ordering sorts by kind first.
    by_kind: Vec<(&'static str, KindStats)>,
    /// Index into `by_kind` of the most recent hit (0 is safe when empty).
    last_kind: usize,
    per_proc_sent: Vec<u64>,
    per_proc_received: Vec<u64>,
    faults: FaultStats,
    /// Counters that went *backwards* between the snapshots of a
    /// [`NetStats::delta_since`] — see [`NetStats::underflowed`]. Always
    /// empty on live stats.
    underflow: Vec<String>,
}

impl NetStats {
    pub(crate) fn new(n_procs: usize) -> Self {
        NetStats {
            by_kind: Vec::new(),
            last_kind: 0,
            per_proc_sent: vec![0; n_procs],
            per_proc_received: vec![0; n_procs],
            faults: FaultStats::default(),
            underflow: Vec::new(),
        }
    }

    /// Counters for injected faults (all zero without a fault plan).
    pub fn faults(&self) -> &FaultStats {
        &self.faults
    }

    pub(crate) fn faults_mut(&mut self) -> &mut FaultStats {
        &mut self.faults
    }

    pub(crate) fn record_send(
        &mut self,
        kind: &'static str,
        src: usize,
        dst: Option<usize>,
        size: usize,
        local: bool,
    ) {
        let entry = self.kind_slot(kind);
        if local {
            entry.local += 1;
        } else {
            entry.remote += 1;
            entry.remote_bytes += size as u64;
        }
        if let Some(s) = self.per_proc_sent.get_mut(src) {
            *s += 1;
        }
        if let Some(d) = dst.and_then(|d| self.per_proc_received.get_mut(d)) {
            *d += 1;
        }
    }

    /// The mutable counters for `kind`, found without hashing: pointer
    /// compare against the last hit first (static strings make that almost
    /// always correct), then a short content scan, inserting on miss. The
    /// content fallback keeps duplicate literals with equal text merged.
    fn kind_slot(&mut self, kind: &'static str) -> &mut KindStats {
        if let Some((k, _)) = self.by_kind.get(self.last_kind) {
            if std::ptr::eq(*k, kind) {
                return &mut self.by_kind[self.last_kind].1;
            }
        }
        let idx = match self
            .by_kind
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, kind) || *k == kind)
        {
            Some(i) => i,
            None => {
                self.by_kind.push((kind, KindStats::default()));
                self.by_kind.len() - 1
            }
        };
        self.last_kind = idx;
        &mut self.by_kind[idx].1
    }

    /// All messages sent, local and remote, across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.by_kind.iter().map(|(_, v)| v.total()).sum()
    }

    /// Remote messages only — the paper's cost unit.
    pub fn remote_messages(&self) -> u64 {
        self.by_kind.iter().map(|(_, v)| v.remote).sum()
    }

    /// Remote bytes (sum of payload size hints).
    fn remote_bytes(&self) -> u64 {
        self.by_kind.iter().map(|(_, v)| v.remote_bytes).sum()
    }

    /// Counters for one message kind (zeros if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
            .unwrap_or_default()
    }

    /// Iterate `(kind, counters)` in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        let mut sorted: Vec<(&'static str, KindStats)> = self.by_kind.clone();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        sorted.into_iter()
    }

    /// Sum of remote counts over kinds matching the predicate.
    pub fn remote_matching(&self, mut pred: impl FnMut(&str) -> bool) -> u64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| v.remote)
            .sum()
    }

    /// Messages sent per processor (index = `ProcId.0`).
    pub fn per_proc_sent(&self) -> &[u64] {
        &self.per_proc_sent
    }

    /// Messages received per processor.
    pub fn per_proc_received(&self) -> &[u64] {
        &self.per_proc_received
    }

    /// Difference from a prior snapshot: counters in `self` minus `earlier`.
    ///
    /// Used to attribute message costs to a single phase of a run (e.g. "one
    /// split"), since stats only accumulate.
    ///
    /// Live counters are monotone, so a counter that reads *lower* than in
    /// `earlier` means the snapshots are mismatched (different runs, or
    /// snapshots taken in the wrong order). The subtraction still clamps to
    /// zero — a phase cost can't be negative — but every offending counter
    /// is named in [`NetStats::underflowed`] instead of being silently
    /// masked.
    pub fn delta_since(&self, earlier: &NetStats) -> NetStats {
        let mut out = self.clone();
        let mut underflow = Vec::new();
        let mut sub = |now: u64, prev: u64, name: &dyn Fn() -> String| -> u64 {
            if now < prev {
                underflow.push(name());
            }
            now.saturating_sub(prev)
        };
        let mut earlier_kinds: Vec<(&'static str, &KindStats)> = earlier
            .by_kind
            .iter()
            .map(|(k, v)| (*k, v))
            .collect::<Vec<_>>();
        earlier_kinds.sort_unstable_by_key(|(k, _)| *k);
        for (kind, prev) in earlier_kinds {
            let e = out.kind_slot(kind);
            e.remote = sub(e.remote, prev.remote, &|| format!("kind:{kind}.remote"));
            e.local = sub(e.local, prev.local, &|| format!("kind:{kind}.local"));
            e.remote_bytes = sub(e.remote_bytes, prev.remote_bytes, &|| {
                format!("kind:{kind}.remote_bytes")
            });
        }
        for (i, prev) in earlier.per_proc_sent.iter().enumerate() {
            if let Some(s) = out.per_proc_sent.get_mut(i) {
                *s = sub(*s, *prev, &|| format!("proc{i}.sent"));
            }
        }
        for (i, prev) in earlier.per_proc_received.iter().enumerate() {
            if let Some(r) = out.per_proc_received.get_mut(i) {
                *r = sub(*r, *prev, &|| format!("proc{i}.received"));
            }
        }
        for (now, prev, name) in [
            (
                self.faults.dropped,
                earlier.faults.dropped,
                "faults.dropped",
            ),
            (
                self.faults.duplicated,
                earlier.faults.duplicated,
                "faults.duplicated",
            ),
            (
                self.faults.partition_dropped,
                earlier.faults.partition_dropped,
                "faults.partition_dropped",
            ),
            (
                self.faults.crash_dropped,
                earlier.faults.crash_dropped,
                "faults.crash_dropped",
            ),
            (
                self.faults.timer_dropped,
                earlier.faults.timer_dropped,
                "faults.timer_dropped",
            ),
            (
                self.faults.crashes,
                earlier.faults.crashes,
                "faults.crashes",
            ),
            (
                self.faults.restarts,
                earlier.faults.restarts,
                "faults.restarts",
            ),
        ] {
            if now < prev {
                underflow.push(name.to_string());
            }
        }
        out.faults = self.faults.saturating_sub(&earlier.faults);
        out.underflow = underflow;
        out
    }

    /// Counters that went backwards in the [`NetStats::delta_since`] that
    /// produced this value (their deltas were clamped to zero). Non-empty
    /// means the delta is unreliable: the snapshots don't describe one
    /// monotone accumulation.
    pub fn underflowed(&self) -> &[String] {
        &self.underflow
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: {} total ({} remote, {} remote bytes)",
            self.total_messages(),
            self.remote_messages(),
            self.remote_bytes()
        )?;
        for (kind, ks) in self.kinds() {
            writeln!(
                f,
                "  {:<24} remote {:>8}  local {:>8}",
                kind, ks.remote, ks.local
            )?;
        }
        if self.faults.any() {
            writeln!(
                f,
                "faults: {} dropped, {} duplicated, {} partition-dropped, \
                 {} crash-dropped, {} timers lost, {} crashes, {} restarts",
                self.faults.dropped,
                self.faults.duplicated,
                self.faults.partition_dropped,
                self.faults.crash_dropped,
                self.faults.timer_dropped,
                self.faults.crashes,
                self.faults.restarts
            )?;
        }
        if !self.underflow.is_empty() {
            writeln!(
                f,
                "WARNING: {} counter(s) went backwards in delta: {}",
                self.underflow.len(),
                self.underflow.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind_and_locality() {
        let mut s = NetStats::new(2);
        s.record_send("insert", 0, Some(1), 16, false);
        s.record_send("insert", 0, Some(0), 16, true);
        s.record_send("search", 1, Some(0), 8, false);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.remote_messages(), 2);
        assert_eq!(s.kind("insert").remote, 1);
        assert_eq!(s.kind("insert").local, 1);
        assert_eq!(s.kind("search").remote, 1);
        assert_eq!(s.kind("missing"), KindStats::default());
        assert_eq!(s.remote_bytes(), 24);
        assert_eq!(s.per_proc_sent(), &[2, 1]);
        assert_eq!(s.per_proc_received(), &[2, 1]);
    }

    #[test]
    fn delta_since_attributes_a_phase() {
        let mut s = NetStats::new(1);
        s.record_send("a", 0, Some(0), 4, false);
        let snap = s.clone();
        s.record_send("a", 0, Some(0), 4, false);
        s.record_send("b", 0, Some(0), 4, false);
        let d = s.delta_since(&snap);
        assert_eq!(d.kind("a").remote, 1);
        assert_eq!(d.kind("b").remote, 1);
        assert_eq!(d.per_proc_sent(), &[2]);
        assert!(d.underflowed().is_empty(), "forward deltas are clean");
    }

    #[test]
    fn delta_since_surfaces_underflow() {
        // Snapshots taken in the wrong order: every counter that moved
        // reads backwards, and each must be named rather than silently
        // clamped to zero.
        let mut s = NetStats::new(1);
        s.record_send("a", 0, Some(0), 4, false);
        let later = s.clone();
        s.record_send("a", 0, Some(0), 4, false);
        let d = later.delta_since(&s);
        assert_eq!(d.kind("a").remote, 0, "clamped, not negative");
        let names = d.underflowed();
        assert!(
            names.contains(&"kind:a.remote".to_string()),
            "kind counter named: {names:?}"
        );
        assert!(
            names.contains(&"proc0.sent".to_string()),
            "per-proc counter named: {names:?}"
        );
        let shown = format!("{d}");
        assert!(shown.contains("went backwards"), "Display warns: {shown}");
    }

    #[test]
    fn remote_matching_filters() {
        let mut s = NetStats::new(1);
        s.record_send("split.start", 0, None, 0, false);
        s.record_send("split.end", 0, None, 0, false);
        s.record_send("insert", 0, None, 0, false);
        assert_eq!(s.remote_matching(|k| k.starts_with("split")), 2);
    }
}
