//! sentinel-guard cases: an unguarded arena read (fires), a guarded
//! read, a suppressed read, and a pure store (exempt).

pub const NO_LINK: u32 = u32::MAX;

pub struct Ring {
    fingers: Vec<u32>,
    succs: Vec<u32>,
}

impl Ring {
    pub fn read_unguarded(&self, i: usize) -> u32 {
        self.fingers[i]
    }

    pub fn read_guarded(&self, i: usize) -> Option<u32> {
        let v = self.succs[i];
        (v != NO_LINK).then_some(v)
    }

    pub fn read_suppressed(&self, i: usize) -> u32 {
        // lint:allow(sentinel-guard): caller filters NO_LINK entries
        self.fingers[i]
    }

    pub fn store(&mut self, i: usize, v: u32) {
        self.fingers[i] = v;
    }
}
