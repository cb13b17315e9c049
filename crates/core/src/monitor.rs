//! The §V unsafe-pattern monitor.
//!
//! DAMPI ticks the local clock at a wildcard `Irecv` *post*, but the match
//! only commits at its `Wait`/`Test`. If the process transmits its clock in
//! between — an `Isend` or any collective — other processes observe a clock
//! that already counts the uncommitted receive, and late-message analysis
//! can misclassify a send that is still a legitimate competitor (the
//! paper's Fig. 10: a `Barrier` between `Irecv(*)` and its `Wait` lets a
//! post-barrier send race the receive undetected).
//!
//! The pattern is checkable *dynamically and locally* (hence scalably):
//! track wildcard receives posted but not yet completed; flag every
//! clock-transmitting operation issued while any is pending.

use dampi_mpi::{IdSet, Request};

/// Per-rank unsafe-pattern monitor.
#[derive(Debug, Default)]
pub struct UnsafePatternMonitor {
    pending: IdSet<Request>,
    alerts: u64,
}

impl UnsafePatternMonitor {
    /// A wildcard receive was posted.
    pub fn nd_posted(&mut self, req: Request) {
        self.pending.insert(req);
    }

    /// A wildcard receive completed (via wait or successful test).
    pub fn nd_completed(&mut self, req: Request) {
        self.pending.remove(&req);
    }

    /// The rank is about to transmit its clock (send or collective).
    /// Returns `true` — and counts an alert — when the pattern is live.
    pub fn clock_transmitted(&mut self) -> bool {
        if !self.pending.is_empty() {
            self.alerts += 1;
            true
        } else {
            false
        }
    }

    /// Alerts raised so far.
    #[must_use]
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Wildcard receives currently pending completion.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_without_pending_nd() {
        let mut m = UnsafePatternMonitor::default();
        assert!(!m.clock_transmitted());
        assert_eq!(m.alerts(), 0);
    }

    #[test]
    fn fig10_pattern_detected() {
        // Irecv(*) ... Barrier (clock transmission) ... Wait — alert.
        let mut m = UnsafePatternMonitor::default();
        m.nd_posted(Request(1));
        assert!(m.clock_transmitted());
        m.nd_completed(Request(1));
        assert!(!m.clock_transmitted());
        assert_eq!(m.alerts(), 1);
    }

    #[test]
    fn safe_order_raises_nothing() {
        // Irecv(*) ... Wait ... Barrier — no alert.
        let mut m = UnsafePatternMonitor::default();
        m.nd_posted(Request(1));
        m.nd_completed(Request(1));
        assert!(!m.clock_transmitted());
        assert_eq!(m.alerts(), 0);
    }

    #[test]
    fn multiple_pending_counted_once_per_transmission() {
        let mut m = UnsafePatternMonitor::default();
        m.nd_posted(Request(1));
        m.nd_posted(Request(2));
        assert_eq!(m.pending_count(), 2);
        assert!(m.clock_transmitted());
        assert!(m.clock_transmitted());
        assert_eq!(m.alerts(), 2);
    }
}
