// Fixture: a miniature stats.rs whose table has one unemitted row.
// `ghost_counter` (line 12) is neither mirrored into Summary, nor read
// by a derived row, nor read by any harness; `dropped_queue` is read
// only through `dropped_total`, which the derived `dropped` row calls.
stats_table! {
    fn new(max_depth: u16);
    /// Queries injected.
    mirror injected: u64;
    /// Queue drops, folded into `dropped`.
    runstats dropped_queue: u64;
    /// A counter nothing emits.
    runstats ghost_counter: u64;
    /// Final drops.
    derived dropped: u64 = |s| s.dropped_total(), "{}";
}

impl RunStats {
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue
    }

    pub fn on_ghost(&mut self) {
        self.ghost_counter += 1;
    }
}
