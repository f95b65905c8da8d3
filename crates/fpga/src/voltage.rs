//! Voltage regions of an underscaled BRAM rail.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The three regions Fig. 5 identifies as the rail is underscaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VoltageRegion {
    /// Between nominal and `Vmin`: the vendor guardband, fully reliable.
    Guardband,
    /// Between `Vmin` and `Vcrash`: the device responds but BRAM content
    /// experiences bit-flips at an exponentially growing rate.
    Critical,
    /// At or below `Vcrash`: the DONE pin is unset and the device does not
    /// respond to any request.
    Crash,
}

impl fmt::Display for VoltageRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VoltageRegion::Guardband => "guardband",
            VoltageRegion::Critical => "critical",
            VoltageRegion::Crash => "crash",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(VoltageRegion::Guardband.to_string(), "guardband");
        assert_eq!(VoltageRegion::Critical.to_string(), "critical");
        assert_eq!(VoltageRegion::Crash.to_string(), "crash");
    }
}
