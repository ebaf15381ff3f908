// Fixture: behavior code that every token pass must accept — an emitted
// counter, a live knob, allocation-free code and no cross-server
// access. Tokens that look like violations appear only inside comments
// and strings, which scrubbing blanks: .clone(), self.ctxs[0].
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

pub fn drive(cfg: &Config, st: &mut RunStats) -> &'static str {
    if cfg.live_knob {
        st.on_inject();
    }
    "format! and .ctxs.get_mut in a string are fine"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let _ = vec![1u8].clone();
    }
}
