//! Testbed platform profiles.
//!
//! The paper evaluates on two clusters (Section IV-F):
//!
//! * **Ookami** — HPE Apollo 80, 174 Fujitsu A64FX FX700 nodes, ConnectX-6
//!   100 Gb/s InfiniBand;
//! * **Thor** — Dell PowerEdge R730 with dual Xeon E5-2697A v4 hosts, each
//!   with an Arm Cortex-A72-based NVIDIA BlueField-2 100 Gb/s DPU.
//!
//! A [`Platform`] bundles the client CPU, the server/DPU CPU and the fabric
//! model, and knows which `tc-bitir` target triples the two sides use.  All
//! calibration constants live in [`crate::cpu`] and [`crate::fabric`].

use crate::cpu::CpuProfile;
use crate::fabric::FabricProfile;

/// Identifier for the three platform configurations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Ookami: A64FX client and A64FX servers.
    Ookami,
    /// Thor with the Xeon host as client and BlueField-2 DPUs as servers.
    ThorBf2,
    /// Thor with Xeon hosts on both sides.
    ThorXeon,
}

impl PlatformId {
    /// All platforms.
    pub const ALL: [PlatformId; 3] = [
        PlatformId::Ookami,
        PlatformId::ThorBf2,
        PlatformId::ThorXeon,
    ];
}

/// A complete testbed description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Which configuration this is.
    pub id: PlatformId,
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// CPU profile of the client (the process issuing ifuncs / GETs).
    pub client_cpu: CpuProfile,
    /// CPU profile of the servers (the processes receiving and executing
    /// ifuncs — DPU Arm cores in the Thor-BF2 configuration).
    pub server_cpu: CpuProfile,
    /// Fabric model between the participating endpoints.
    pub fabric: FabricProfile,
    /// Canonical target-triple string of the client.
    pub client_triple: &'static str,
    /// Canonical target-triple string of the servers.
    pub server_triple: &'static str,
    /// Number of servers used in the paper's depth-sweep figures for this
    /// platform (32 for Thor-BF2, 64 for Ookami, 16 for Thor-Xeon).
    pub sweep_servers: usize,
}

impl Platform {
    /// The Ookami configuration (Figures 6 and 10).
    pub fn ookami() -> Self {
        Platform {
            id: PlatformId::Ookami,
            name: "Ookami (A64FX client & servers)",
            client_cpu: CpuProfile::a64fx(),
            server_cpu: CpuProfile::a64fx(),
            fabric: FabricProfile::ookami_connectx6(),
            client_triple: "aarch64-a64fx-sim",
            server_triple: "aarch64-a64fx-sim",
            sweep_servers: 64,
        }
    }

    /// The Thor configuration with BlueField-2 DPU servers (Figures 5, 8, 9
    /// and 12; Tables II and V).
    pub fn thor_bf2() -> Self {
        Platform {
            id: PlatformId::ThorBf2,
            name: "Thor (Xeon client, BlueField-2 DPU servers)",
            client_cpu: CpuProfile::xeon_e5(),
            server_cpu: CpuProfile::bf2_cortex_a72(),
            fabric: FabricProfile::thor_bf2_fabric(),
            client_triple: "x86_64-xeon-e5-sim",
            server_triple: "aarch64-cortex-a72-sim",
            sweep_servers: 32,
        }
    }

    /// The Thor configuration with Xeon servers (Figures 7 and 11; Tables III
    /// and VI).
    pub fn thor_xeon() -> Self {
        Platform {
            id: PlatformId::ThorXeon,
            name: "Thor (Xeon client & servers)",
            client_cpu: CpuProfile::xeon_e5(),
            server_cpu: CpuProfile::xeon_e5(),
            fabric: FabricProfile::thor_xeon_fabric(),
            client_triple: "x86_64-xeon-e5-sim",
            server_triple: "x86_64-xeon-e5-sim",
            sweep_servers: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_platform_carries_its_id() {
        let all = [
            Platform::ookami(),
            Platform::thor_bf2(),
            Platform::thor_xeon(),
        ];
        assert_eq!(all.map(|p| p.id), PlatformId::ALL);
        for p in all {
            assert!(!p.name.is_empty());
            assert!(p.sweep_servers >= 16);
        }
    }

    /// Only on Thor-BF2 do client and servers differ in ISA: the case where a
    /// binary ifunc built on the client cannot run on the servers.
    #[test]
    fn thor_bf2_is_the_heterogeneous_platform() {
        let isa = |t: &'static str| t.split('-').next();
        let heterogeneous = |p: Platform| isa(p.client_triple) != isa(p.server_triple);
        assert!(heterogeneous(Platform::thor_bf2()));
        assert!(!heterogeneous(Platform::ookami()));
        assert!(!heterogeneous(Platform::thor_xeon()));
    }

    #[test]
    fn sweep_server_counts_match_paper_figures() {
        assert_eq!(Platform::thor_bf2().sweep_servers, 32); // Fig. 5
        assert_eq!(Platform::ookami().sweep_servers, 64); // Fig. 6
        assert_eq!(Platform::thor_xeon().sweep_servers, 16); // Fig. 7
    }

    #[test]
    fn dpu_servers_are_slower_than_their_hosts() {
        let thor = Platform::thor_bf2();
        // JIT on the DPU cores must be slower than on the Xeon host.
        assert!(
            thor.server_cpu.jit_time(5159) > thor.client_cpu.jit_time(5159),
            "BF2 JIT should be slower than Xeon JIT"
        );
    }

    #[test]
    fn triples_parse_as_bitir_targets() {
        // Keep the triple strings in sync with tc-bitir's canonical names.
        for p in [
            Platform::ookami(),
            Platform::thor_bf2(),
            Platform::thor_xeon(),
        ] {
            assert!(p.client_triple.ends_with("-sim"));
            assert!(p.server_triple.ends_with("-sim"));
        }
    }
}
