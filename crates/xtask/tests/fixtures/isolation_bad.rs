//! Known-bad isolation fixture: every annotated line below must be
//! reported by the isolation pass at exactly that `path:line`.

pub struct System {
    ctxs: Vec<u32>,
}

impl System {
    pub fn cross_server(&mut self) {
        let _ = self.ctxs.get_mut(0);
        // xtask: region(dispatch): begin — regions are illegal outside system.rs
        let _ = &mut self.ctxs;
        // xtask: region(dispatch): end
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_reach_into_state() {
        let mut sys = super::System { ctxs: vec![0] };
        let _ = sys.ctxs.get_mut(0);
    }
}
