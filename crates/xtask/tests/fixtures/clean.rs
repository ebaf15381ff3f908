// Fixture: behavior code that every pass must accept — deterministic
// constructs only, an emitted counter, a live knob, and an
// exhaustively consumed enum. Tokens that look like violations appear
// only inside comments and strings, which scrubbing blanks:
// Instant::now, thread_rng, HashMap::new, .unwrap(), panic!.
stats_table! {
    fn new(max_depth: u16);
    /// Fed below and read by the fixture harness.
    runstats injected: u64;
}

impl RunStats {
    pub fn on_inject(&mut self) {
        self.injected += 1;
    }
}

pub struct Config {
    /// Read by `drive` below.
    pub live_knob: bool,
}

enum Event {
    Inject,
    Deliver,
}

pub fn drive(cfg: &Config, st: &mut RunStats, e: Event) -> &'static str {
    if cfg.live_knob {
        match e {
            Event::Inject => st.on_inject(),
            Event::Deliver => {}
        }
    }
    "HashMap::new in a string is fine"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let _ = std::collections::HashMap::<u8, u8>::new();
    }
}
