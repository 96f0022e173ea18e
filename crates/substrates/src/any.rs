//! Runtime substrate selection: one type, any backend.

use std::path::PathBuf;

use oblidb_enclave::{EnclaveMemory, Host};

use crate::{CachedMemory, DiskMemory, ShardedMemory};

/// Declarative substrate choice, buildable from configuration. Feed the
/// built [`AnySubstrate`] to `Database::with_memory` (or the facade's
/// `oblidb::database_on`) to open the same engine over any backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstrateSpec {
    /// In-RAM [`Host`] (the default substrate).
    Host,
    /// [`DiskMemory`]: `None` uses a self-cleaning temp directory, `Some`
    /// a persistent directory.
    Disk {
        /// Region-file directory; `None` → self-cleaning temp dir.
        dir: Option<PathBuf>,
    },
    /// [`CachedMemory`] over [`Host`] (models host-side caching without
    /// disk latency underneath).
    CachedHost {
        /// Cache capacity in blocks.
        capacity_blocks: usize,
    },
    /// [`CachedMemory`] over [`DiskMemory`]: the larger-than-RAM
    /// configuration.
    CachedDisk {
        /// Region-file directory; `None` → self-cleaning temp dir.
        dir: Option<PathBuf>,
        /// Cache capacity in blocks.
        capacity_blocks: usize,
    },
    /// [`ShardedMemory`] over in-RAM hosts.
    ShardedHost {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// [`ShardedMemory`] over disk substrates, one directory per shard
    /// under `dir` (`None` → self-cleaning temp dirs).
    ShardedDisk {
        /// Parent directory for the shard directories; `None` →
        /// self-cleaning temp dirs.
        dir: Option<PathBuf>,
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

/// Why a substrate spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSubstrateError {
    /// Unknown leading keyword (expected `host`, `disk`, `cached`, or
    /// `sharded`).
    UnknownKind(String),
    /// `cached:`/`sharded:` wraps something that is not `host`/`disk`.
    UnknownInner(String),
    /// A numeric field (cache blocks, shard count) failed to parse or was
    /// zero.
    BadNumber {
        /// Which field.
        field: &'static str,
        /// The offending text.
        got: String,
    },
    /// The spec ended where more was required (e.g. `sharded:4`).
    Incomplete(&'static str),
    /// Text after `host`, which takes none (e.g. the `/data` of
    /// `host:/data`): an in-RAM host has no directory to persist into.
    UnexpectedText(String),
}

impl std::fmt::Display for ParseSubstrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSubstrateError::UnknownKind(s) => {
                write!(f, "unknown substrate '{s}' (expected host | disk[:dir] | cached[:blocks]:<inner> | sharded:<n>:<inner>)")
            }
            ParseSubstrateError::UnknownInner(s) => {
                write!(f, "unknown inner substrate '{s}' (expected host or disk[:dir])")
            }
            ParseSubstrateError::BadNumber { field, got } => {
                write!(f, "invalid {field} '{got}' (expected a positive integer)")
            }
            ParseSubstrateError::Incomplete(what) => write!(f, "spec is missing {what}"),
            ParseSubstrateError::UnexpectedText(s) => {
                write!(f, "unexpected '{s}' after 'host' (an in-RAM host takes no directory)")
            }
        }
    }
}

impl std::error::Error for ParseSubstrateError {}

/// Default hot-block cache capacity when a `cached:` spec names none.
pub const DEFAULT_CACHE_BLOCKS: usize = 4096;

impl std::str::FromStr for SubstrateSpec {
    type Err = ParseSubstrateError;

    /// Parses the configuration-string form used by `OBLIDB_SUBSTRATE`:
    ///
    /// * `host`
    /// * `disk` | `disk:/path/to/dir`
    /// * `cached:<inner>` | `cached:<blocks>:<inner>` — e.g.
    ///   `cached:disk:/data`, `cached:8192:host`
    /// * `sharded:<n>:<inner>` — e.g. `sharded:4:host`,
    ///   `sharded:2:disk:/data`
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn inner_disk_dir(rest: Option<&str>) -> Option<PathBuf> {
            rest.filter(|p| !p.is_empty()).map(PathBuf::from)
        }
        fn host(rest: Option<&str>) -> Result<SubstrateSpec, ParseSubstrateError> {
            match rest.filter(|r| !r.is_empty()) {
                Some(r) => Err(ParseSubstrateError::UnexpectedText(r.to_string())),
                None => Ok(SubstrateSpec::Host),
            }
        }
        let (kind, rest) = match s.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        match kind.trim().to_ascii_lowercase().as_str() {
            "host" => host(rest),
            "disk" => Ok(SubstrateSpec::Disk { dir: inner_disk_dir(rest) }),
            "cached" => {
                let rest = rest.ok_or(ParseSubstrateError::Incomplete("an inner substrate"))?;
                // Optional leading block count.
                let (capacity_blocks, inner) = match rest.split_once(':') {
                    Some((first, tail)) if first.chars().all(|c| c.is_ascii_digit()) => {
                        let n = first.parse::<usize>().ok().filter(|n| *n > 0).ok_or(
                            ParseSubstrateError::BadNumber {
                                field: "cache block count",
                                got: first.to_string(),
                            },
                        )?;
                        (n, tail)
                    }
                    _ => (DEFAULT_CACHE_BLOCKS, rest),
                };
                let (ik, irest) = match inner.split_once(':') {
                    Some((k, r)) => (k, Some(r)),
                    None => (inner, None),
                };
                match ik.trim().to_ascii_lowercase().as_str() {
                    "host" => host(irest).map(|_| SubstrateSpec::CachedHost { capacity_blocks }),
                    "disk" => Ok(SubstrateSpec::CachedDisk {
                        dir: inner_disk_dir(irest),
                        capacity_blocks,
                    }),
                    other => Err(ParseSubstrateError::UnknownInner(other.to_string())),
                }
            }
            "sharded" => {
                let rest = rest.ok_or(ParseSubstrateError::Incomplete("a shard count"))?;
                let (count, inner) = rest
                    .split_once(':')
                    .ok_or(ParseSubstrateError::Incomplete("an inner substrate"))?;
                let shards = count.parse::<usize>().ok().filter(|n| *n > 0).ok_or(
                    ParseSubstrateError::BadNumber { field: "shard count", got: count.to_string() },
                )?;
                let (ik, irest) = match inner.split_once(':') {
                    Some((k, r)) => (k, Some(r)),
                    None => (inner, None),
                };
                match ik.trim().to_ascii_lowercase().as_str() {
                    "host" => host(irest).map(|_| SubstrateSpec::ShardedHost { shards }),
                    "disk" => Ok(SubstrateSpec::ShardedDisk { dir: inner_disk_dir(irest), shards }),
                    other => Err(ParseSubstrateError::UnknownInner(other.to_string())),
                }
            }
            other => Err(ParseSubstrateError::UnknownKind(other.to_string())),
        }
    }
}

impl SubstrateSpec {
    /// Reads the spec from the `OBLIDB_SUBSTRATE` environment variable
    /// ([`SubstrateSpec::Host`] when unset or empty).
    pub fn from_env() -> Result<Self, ParseSubstrateError> {
        match std::env::var("OBLIDB_SUBSTRATE") {
            Ok(s) if !s.trim().is_empty() => s.trim().parse(),
            _ => Ok(SubstrateSpec::Host),
        }
    }

    /// A short label for the stack this spec builds ("host", "disk",
    /// "cached-disk", …): the substrate column in reports, and the
    /// conventional key for a per-substrate cost profile
    /// (`oblidb_core::CostProfile::named`).
    pub fn profile_name(&self) -> &'static str {
        match self {
            SubstrateSpec::Host => "host",
            SubstrateSpec::Disk { .. } => "disk",
            SubstrateSpec::CachedHost { .. } => "cached-host",
            SubstrateSpec::CachedDisk { .. } => "cached-disk",
            SubstrateSpec::ShardedHost { .. } => "sharded-host",
            SubstrateSpec::ShardedDisk { .. } => "sharded-disk",
        }
    }

    /// The directory a database over this spec persists into (region
    /// files, region tables, and the sealed database manifest), when the
    /// spec names one. `None` for in-memory and self-cleaning-temp specs —
    /// those have nothing durable to reopen.
    pub fn persist_dir(&self) -> Option<&std::path::Path> {
        match self {
            SubstrateSpec::Disk { dir: Some(d) }
            | SubstrateSpec::CachedDisk { dir: Some(d), .. }
            | SubstrateSpec::ShardedDisk { dir: Some(d), .. } => Some(d),
            _ => None,
        }
    }

    /// Re-attaches to the populated store this spec describes: the
    /// reopen-side counterpart of [`SubstrateSpec::build`], using
    /// [`DiskMemory::open`] underneath. Fails with
    /// [`std::io::ErrorKind::Unsupported`] for specs with no durable state
    /// (in-memory hosts, self-cleaning temp dirs).
    pub fn open(&self) -> std::io::Result<AnySubstrate> {
        let nothing_durable = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("substrate spec '{what}' has no persisted state to reopen"),
            )
        };
        let m: AnySubstrate = match self {
            SubstrateSpec::Disk { dir: Some(d) } => Box::new(DiskMemory::open(d)?),
            SubstrateSpec::CachedDisk { dir: Some(d), capacity_blocks } => {
                Box::new(CachedMemory::new(DiskMemory::open(d)?, *capacity_blocks))
            }
            SubstrateSpec::ShardedDisk { dir: Some(d), shards } => {
                let mut inners = Vec::with_capacity(*shards);
                for i in 0..*shards {
                    inners.push(DiskMemory::open(d.join(format!("shard-{i}")))?);
                }
                let slots: Vec<usize> = inners.iter().map(DiskMemory::region_slots).collect();
                Box::new(ShardedMemory::reattach(inners, &slots))
            }
            SubstrateSpec::Disk { dir: None }
            | SubstrateSpec::CachedDisk { dir: None, .. }
            | SubstrateSpec::ShardedDisk { dir: None, .. } => {
                return Err(nothing_durable("disk (temp dir)"));
            }
            other => return Err(nothing_durable(other.profile_name())),
        };
        Ok(m)
    }

    /// Builds the substrate this spec describes.
    pub fn build(&self) -> std::io::Result<AnySubstrate> {
        let m: AnySubstrate = match self {
            SubstrateSpec::Host => Box::new(Host::new()),
            SubstrateSpec::Disk { dir } => Box::new(disk(dir)?),
            SubstrateSpec::CachedHost { capacity_blocks } => {
                Box::new(CachedMemory::new(Host::new(), *capacity_blocks))
            }
            SubstrateSpec::CachedDisk { dir, capacity_blocks } => {
                Box::new(CachedMemory::new(disk(dir)?, *capacity_blocks))
            }
            SubstrateSpec::ShardedHost { shards } => {
                Box::new(ShardedMemory::from_fn(*shards, |_| Host::new()))
            }
            SubstrateSpec::ShardedDisk { dir, shards } => {
                let mut inners = Vec::with_capacity(*shards);
                for i in 0..*shards {
                    inners.push(match dir {
                        Some(d) => DiskMemory::create(d.join(format!("shard-{i}")))?,
                        None => DiskMemory::temp()?,
                    });
                }
                Box::new(ShardedMemory::new(inners))
            }
        };
        Ok(m)
    }
}

fn disk(dir: &Option<PathBuf>) -> std::io::Result<DiskMemory> {
    match dir {
        Some(d) => DiskMemory::create(d),
        None => DiskMemory::temp(),
    }
}

/// A runtime-selected substrate stack: any [`EnclaveMemory`] the engine
/// ships, boxed so `Database<AnySubstrate>` stays one instantiation per
/// binary while the stack comes from configuration. Built by
/// [`SubstrateSpec::build`] and [`SubstrateSpec::open`]; price its
/// boundary with [`EnclaveMemory::set_crossing_cost`].
pub type AnySubstrate = Box<dyn EnclaveMemory + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &SubstrateSpec) {
        let mut m = spec.build().unwrap();
        let label = spec.profile_name();
        let r = m.alloc_region(4, 8).unwrap();
        m.write(r, 2, &[5u8; 8]).unwrap();
        if m.retains_payloads() {
            assert_eq!(m.read(r, 2).unwrap(), &[5u8; 8], "{label}");
        }
        assert_eq!(m.stats().writes, 1, "{label}");
        m.sync().unwrap();
    }

    #[test]
    fn every_spec_builds_and_roundtrips() {
        for spec in [
            SubstrateSpec::Host,
            SubstrateSpec::Disk { dir: None },
            SubstrateSpec::CachedHost { capacity_blocks: 2 },
            SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 2 },
            SubstrateSpec::ShardedHost { shards: 3 },
            SubstrateSpec::ShardedDisk { dir: None, shards: 2 },
        ] {
            roundtrip(&spec);
        }
    }

    #[test]
    fn spec_parses_from_strings() {
        let cases: Vec<(&str, SubstrateSpec)> = vec![
            ("host", SubstrateSpec::Host),
            ("disk", SubstrateSpec::Disk { dir: None }),
            ("disk:/tmp/obli", SubstrateSpec::Disk { dir: Some("/tmp/obli".into()) }),
            ("cached:host", SubstrateSpec::CachedHost { capacity_blocks: DEFAULT_CACHE_BLOCKS }),
            ("cached:512:host", SubstrateSpec::CachedHost { capacity_blocks: 512 }),
            (
                "cached:disk:/data",
                SubstrateSpec::CachedDisk {
                    dir: Some("/data".into()),
                    capacity_blocks: DEFAULT_CACHE_BLOCKS,
                },
            ),
            ("cached:128:disk", SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 128 }),
            ("sharded:4:host", SubstrateSpec::ShardedHost { shards: 4 }),
            (
                "sharded:2:disk:/data",
                SubstrateSpec::ShardedDisk { dir: Some("/data".into()), shards: 2 },
            ),
        ];
        for (text, expect) in cases {
            assert_eq!(text.parse::<SubstrateSpec>().unwrap(), expect, "{text}");
        }
    }

    #[test]
    fn spec_parse_errors_are_typed() {
        assert!(matches!(
            "floppy".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownKind(k)) if k == "floppy"
        ));
        assert!(matches!(
            "cached:tape".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownInner(k)) if k == "tape"
        ));
        assert!(matches!(
            "sharded:0:host".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::BadNumber { field: "shard count", .. })
        ));
        assert!(matches!(
            "cached:0:host".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::BadNumber { field: "cache block count", .. })
        ));
        assert!(matches!(
            "sharded:4".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::Incomplete(_))
        ));
        assert!(matches!(
            "cached".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::Incomplete(_))
        ));
        // An in-RAM host takes no directory: trailing text is an error,
        // not a silently dropped path.
        for text in ["host:/data", "cached:host:/data", "sharded:2:host:/data"] {
            assert!(
                matches!(
                    text.parse::<SubstrateSpec>(),
                    Err(ParseSubstrateError::UnexpectedText(t)) if t == "/data"
                ),
                "{text}"
            );
        }
        // Errors render a usable hint.
        let msg = "floppy".parse::<SubstrateSpec>().unwrap_err().to_string();
        assert!(msg.contains("expected host | disk"), "{msg}");
    }
}
