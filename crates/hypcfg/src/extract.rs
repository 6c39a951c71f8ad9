//! DTS → configuration extraction (the source-to-source transformation
//! of §III-B).

use std::error::Error;
use std::fmt;

use llhsc_dts::cells::{collect_regions, DeviceRegions};
use llhsc_dts::{DeviceTree, Node};

use crate::model::{Cluster, DevRegion, IpcRegion, MemRegion, PlatformConfig, VmConfig, VmImage};

/// Errors while extracting a configuration from a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The tree has no memory node, so no regions can be derived.
    NoMemory,
    /// The tree has no `cpus` node (a platform needs processors — the
    /// paper's motivating mandatory feature).
    NoCpus,
    /// A `reg` property failed to decode.
    BadReg(String),
    /// An address or size exceeds 64 bits.
    AddressOverflow {
        /// The node involved.
        path: String,
    },
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NoMemory => write!(f, "no memory device node in the tree"),
            ExtractError::NoCpus => write!(f, "no cpus node in the tree"),
            ExtractError::BadReg(m) => write!(f, "bad reg property: {m}"),
            ExtractError::AddressOverflow { path } => {
                write!(f, "{path}: address or size exceeds 64 bits")
            }
        }
    }
}

impl Error for ExtractError {}

fn is_memory(node: &Node) -> bool {
    node.prop_str("device_type") == Some("memory") || node.base_name() == "memory"
}

fn is_cpu(node: &Node) -> bool {
    node.prop_str("device_type") == Some("cpu") || node.base_name() == "cpu"
}

fn is_uart(node: &Node) -> bool {
    node.base_name() == "uart"
        || node.base_name() == "serial"
        || node
            .prop_str("compatible")
            .is_some_and(|c| c.contains("uart") || c.contains("16550"))
}

fn is_veth(node: &Node) -> bool {
    node.prop_str("compatible") == Some("veth")
}

fn to_u64(v: u128, path: &str) -> Result<u64, ExtractError> {
    u64::try_from(v).map_err(|_| ExtractError::AddressOverflow {
        path: path.to_string(),
    })
}

fn regions_of(
    devices: &[DeviceRegions],
    pred: impl Fn(&Node) -> bool,
) -> Result<Vec<(String, Vec<MemRegion>)>, ExtractError> {
    let mut out = Vec::new();
    for d in devices {
        if !pred(d.node) {
            continue;
        }
        let mut regions = Vec::new();
        for r in &d.regions {
            regions.push(MemRegion {
                base: to_u64(r.address, &d.path)?,
                size: to_u64(r.size, &d.path)?,
            });
        }
        out.push((d.path.clone(), regions));
    }
    Ok(out)
}

impl PlatformConfig {
    /// Extracts the platform descriptor (Listing 3) from a platform
    /// DTS: memory nodes become `.regions`, the `cpus` node becomes
    /// `.cpu_num`/`.arch.clusters`, the first UART becomes the console.
    /// Every address is physical: regions are read at the addresses the
    /// CPU sees, through the `ranges` of the buses above them.
    ///
    /// # Errors
    ///
    /// [`ExtractError::NoMemory`] / [`ExtractError::NoCpus`] for
    /// incomplete trees, [`ExtractError::BadReg`] for undecodable `reg`
    /// or `ranges` properties and for regions outside their bus's
    /// windows.
    pub fn from_tree(tree: &DeviceTree) -> Result<PlatformConfig, ExtractError> {
        let devices = collect_regions(tree).map_err(|e| ExtractError::BadReg(e.to_string()))?;

        let mut regions: Vec<MemRegion> = Vec::new();
        for (_, rs) in regions_of(&devices, is_memory)? {
            regions.extend(rs);
        }
        if regions.is_empty() {
            return Err(ExtractError::NoMemory);
        }

        let cpus = tree.find("/cpus").ok_or(ExtractError::NoCpus)?;
        let cores = cpus.children.iter().filter(|c| is_cpu(c)).count() as u32;
        if cores == 0 {
            return Err(ExtractError::NoCpus);
        }

        let console_base = devices
            .iter()
            .filter(|d| is_uart(d.node))
            .filter_map(|d| d.regions.first())
            .map(|r| to_u64(r.address, "uart"))
            .next()
            .transpose()?;

        Ok(PlatformConfig {
            cpu_num: cores,
            regions,
            console_base,
            clusters: vec![Cluster {
                core_num: vec![cores as u8],
            }],
        })
    }
}

impl VmConfig {
    /// Extracts one VM's configuration (Listing 6) from its DTS.
    ///
    /// Conventions from the running example: memory nodes become guest
    /// `.regions` (the first base doubles as image base and entry);
    /// UART nodes become identity-mapped `.devs`; `veth` nodes become
    /// `.ipcs` with one shared-memory segment per veth `id`. The CPU
    /// affinity bitmap has a bit per `cpu` child of `/cpus` set from its
    /// `reg` value. Addresses are physical, as in
    /// [`PlatformConfig::from_tree`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlatformConfig::from_tree`].
    pub fn from_tree(tree: &DeviceTree, image_name: &str) -> Result<VmConfig, ExtractError> {
        let devices = collect_regions(tree).map_err(|e| ExtractError::BadReg(e.to_string()))?;

        let mut regions: Vec<MemRegion> = Vec::new();
        for (_, rs) in regions_of(&devices, is_memory)? {
            regions.extend(rs);
        }
        if regions.is_empty() {
            return Err(ExtractError::NoMemory);
        }

        let cpus = tree.find("/cpus").ok_or(ExtractError::NoCpus)?;
        let mut cpu_affinity: u64 = 0;
        let mut cpu_num: u32 = 0;
        for c in cpus.children.iter().filter(|c| is_cpu(c)) {
            cpu_num += 1;
            let bit = c.prop_u32("reg").unwrap_or(0).min(63);
            cpu_affinity |= 1 << bit;
        }
        if cpu_num == 0 {
            return Err(ExtractError::NoCpus);
        }

        let mut devs: Vec<DevRegion> = Vec::new();
        for d in &devices {
            if !is_uart(d.node) {
                continue;
            }
            for r in &d.regions {
                let pa = to_u64(r.address, &d.path)?;
                devs.push(DevRegion {
                    pa,
                    va: pa,
                    size: to_u64(r.size, &d.path)?,
                });
            }
        }

        let mut ipcs: Vec<IpcRegion> = Vec::new();
        for d in &devices {
            if !is_veth(d.node) {
                continue;
            }
            let shmem_id = d.node.prop_u32("id").unwrap_or(ipcs.len() as u32);
            if let Some(r) = d.regions.first() {
                ipcs.push(IpcRegion {
                    base: to_u64(r.address, &d.path)?,
                    size: to_u64(r.size, &d.path)?,
                    shmem_id,
                });
            }
        }

        let base = regions.first().map(|r| r.base).unwrap_or(0);
        Ok(VmConfig {
            image: VmImage {
                base_addr: base,
                name: image_name.to_string(),
                file: format!("{image_name}image.bin"),
            },
            entry: base,
            cpu_affinity,
            cpu_num,
            regions,
            devs,
            ipcs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_dts::parse;

    pub(crate) const RUNNING_EXAMPLE: &str = r#"
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { device_type = "cpu"; compatible = "arm,cortex-a53"; reg = <0x0>; };
        cpu@1 { device_type = "cpu"; compatible = "arm,cortex-a53"; reg = <0x1>; };
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
    uart@30000000 { compatible = "ns16550a"; reg = <0x0 0x30000000 0x0 0x1000>; };
};
"#;

    #[test]
    fn platform_matches_listing3() {
        // Listing 3: cpu_num = 2, two regions, console 0x20000000, one
        // cluster of two cores.
        let t = parse(RUNNING_EXAMPLE).unwrap();
        let p = PlatformConfig::from_tree(&t).unwrap();
        assert_eq!(p.cpu_num, 2);
        assert_eq!(
            p.regions,
            vec![
                MemRegion {
                    base: 0x4000_0000,
                    size: 0x2000_0000
                },
                MemRegion {
                    base: 0x6000_0000,
                    size: 0x2000_0000
                },
            ]
        );
        assert_eq!(p.console_base, Some(0x2000_0000));
        assert_eq!(p.clusters.len(), 1);
        assert_eq!(p.clusters[0].core_num, vec![2]);
    }

    #[test]
    fn vm_config_matches_listing6() {
        // Listing 6: both regions, two uart devs, veth0 ipc with shmem.
        let src = r#"
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x40000000 0x20000000 0x60000000 0x20000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { device_type = "cpu"; reg = <0x0>; };
        cpu@1 { device_type = "cpu"; reg = <0x1>; };
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
    uart@30000000 { compatible = "ns16550a"; reg = <0x30000000 0x1000>; };
    vEthernet {
        #address-cells = <1>;
        #size-cells = <1>;
        veth0@70000000 {
            compatible = "veth";
            reg = <0x70000000 0x10000>;
            id = <0>;
        };
    };
};
"#;
        let t = parse(src).unwrap();
        let vm = VmConfig::from_tree(&t, "vm").unwrap();
        assert_eq!(vm.image.base_addr, 0x4000_0000);
        assert_eq!(vm.entry, 0x4000_0000);
        assert_eq!(vm.cpu_affinity, 0b11);
        assert_eq!(vm.cpu_num, 2);
        assert_eq!(vm.regions.len(), 2);
        assert_eq!(
            vm.devs,
            vec![
                DevRegion {
                    pa: 0x2000_0000,
                    va: 0x2000_0000,
                    size: 0x1000
                },
                DevRegion {
                    pa: 0x3000_0000,
                    va: 0x3000_0000,
                    size: 0x1000
                },
            ]
        );
        assert_eq!(
            vm.ipcs,
            vec![IpcRegion {
                base: 0x7000_0000,
                size: 0x1_0000,
                shmem_id: 0
            }]
        );
        assert_eq!(vm.shmem_sizes(), vec![0x1_0000]);
    }

    /// A UART at bus-local 0 behind a window at 0x10000000.
    const BRIDGED_UART: &str = r#"
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x10000000>; };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { device_type = "cpu"; reg = <0x0>; };
    };
    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x10000000 0x100000>;
        uart@0 { compatible = "ns16550a"; reg = <0x0 0x1000>; };
    };
};
"#;

    #[test]
    fn configs_list_physical_addresses() {
        let t = parse(BRIDGED_UART).unwrap();
        let p = PlatformConfig::from_tree(&t).unwrap();
        assert_eq!(p.console_base, Some(0x1000_0000));
        let vm = VmConfig::from_tree(&t, "vm").unwrap();
        assert_eq!(
            vm.devs,
            vec![DevRegion {
                pa: 0x1000_0000,
                va: 0x1000_0000,
                size: 0x1000
            }]
        );
    }

    #[test]
    fn region_outside_its_windows_is_bad_reg() {
        let t =
            parse(&BRIDGED_UART.replace("reg = <0x0 0x1000>", "reg = <0x200000 0x1000>")).unwrap();
        let err = VmConfig::from_tree(&t, "vm").unwrap_err();
        assert!(
            matches!(&err, ExtractError::BadReg(m) if m.contains("/soc's ranges")),
            "{err}"
        );
        assert_eq!(PlatformConfig::from_tree(&t).unwrap_err(), err);
    }

    #[test]
    fn missing_memory_rejected() {
        let t = parse(
            "/ { cpus { #address-cells = <1>; #size-cells = <0>; cpu@0 { reg = <0>; }; }; };",
        )
        .unwrap();
        assert_eq!(PlatformConfig::from_tree(&t), Err(ExtractError::NoMemory));
    }

    #[test]
    fn missing_cpus_rejected() {
        let t = parse(
            "/ { #address-cells = <2>; #size-cells = <2>; \
             memory@0 { device_type = \"memory\"; reg = <0 0 0 1>; }; };",
        )
        .unwrap();
        assert_eq!(PlatformConfig::from_tree(&t), Err(ExtractError::NoCpus));
    }

    #[test]
    fn bad_reg_propagates() {
        let t = parse(
            r#"/ {
                #address-cells = <2>;
                #size-cells = <2>;
                memory@0 { device_type = "memory"; reg = <0 0 0 1 2>; };
                cpus { cpu@0 { reg = <0>; }; };
            };"#,
        )
        .unwrap();
        assert!(matches!(
            PlatformConfig::from_tree(&t),
            Err(ExtractError::BadReg(_))
        ));
    }

    #[test]
    fn cpu_affinity_respects_reg() {
        let t = parse(
            r#"/ {
                memory@0 { device_type = "memory"; reg = <0 0 1>; };
                cpus {
                    #address-cells = <1>;
                    #size-cells = <0>;
                    cpu@1 { device_type = "cpu"; reg = <0x1>; };
                };
            };"#,
        )
        .unwrap();
        let vm = VmConfig::from_tree(&t, "vm").unwrap();
        assert_eq!(vm.cpu_affinity, 0b10);
        assert_eq!(vm.cpu_num, 1);
    }
}
