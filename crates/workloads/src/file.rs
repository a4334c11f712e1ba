use std::io::{BufRead, BufReader, Read, Write};

use mehpt_types::VirtAddr;

use crate::{Region, Workload};

/// Errors parsing a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl core::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFileError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> TraceFileError {
        TraceFileError::Io(e)
    }
}

/// A recorded virtual-address trace, importable from (and exportable to) a
/// simple text format — the bridge for replaying *real* application traces
/// (e.g. from `perf mem` or a PIN tool) through the simulator.
///
/// Format: `#`-comments; region declarations
/// `region <name> <base-hex> <bytes> <thp|nothp>`; then one hexadecimal
/// virtual address per line. When the trace declares regions, every
/// address must lie inside one of them.
///
/// # Examples
///
/// ```
/// use mehpt_workloads::FileTrace;
///
/// let text = "# demo\nregion heap 0x10000000 0x200000 nothp\n0x10000040\n0x10001040\n";
/// let trace = FileTrace::parse(text.as_bytes())?;
/// assert_eq!(trace.accesses().len(), 2);
/// let workload = trace.into_workload("demo");
/// assert_eq!(workload.total_accesses(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct FileTrace {
    regions: Vec<Region>,
    accesses: Vec<VirtAddr>,
}

impl FileTrace {
    /// Parses the text format from any reader.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed lines, and addresses outside every declared
    /// region, with line numbers.
    pub fn parse<R: Read>(reader: R) -> Result<FileTrace, TraceFileError> {
        let mut trace = FileTrace::default();
        // For each line that is not an address: the addresses read before
        // it. They give an address's line number back from its index.
        let mut other_lines: Vec<usize> = Vec::new();
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let line = line.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                other_lines.push(trace.accesses.len());
                continue;
            }
            if let Some(rest) = line.strip_prefix("region ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 4 {
                    return Err(TraceFileError::Parse {
                        line: lineno,
                        message: "expected: region <name> <base-hex> <bytes> <thp|nothp>".into(),
                    });
                }
                let base = parse_hex(parts[1]).ok_or_else(|| TraceFileError::Parse {
                    line: lineno,
                    message: format!("bad base address {:?}", parts[1]),
                })?;
                let bytes = parse_hex(parts[2])
                    .filter(|&bytes| base.checked_add(bytes).is_some())
                    .ok_or_else(|| TraceFileError::Parse {
                        line: lineno,
                        message: format!("bad region size {:?}", parts[2]),
                    })?;
                let thp = match parts[3] {
                    "thp" => true,
                    "nothp" => false,
                    other => {
                        return Err(TraceFileError::Parse {
                            line: lineno,
                            message: format!("expected thp|nothp, got {other:?}"),
                        })
                    }
                };
                trace.regions.push(Region {
                    name: leak_name(parts[0]),
                    base: VirtAddr::new(base),
                    bytes,
                    thp_eligible: thp,
                });
                other_lines.push(trace.accesses.len());
                continue;
            }
            let va = parse_hex(line).ok_or_else(|| TraceFileError::Parse {
                line: lineno,
                message: format!("bad address {line:?}"),
            })?;
            trace.accesses.push(VirtAddr::new(va));
        }
        if trace.regions.is_empty() {
            return Ok(trace);
        }
        let stray = trace
            .accesses
            .iter()
            .position(|&va| !trace.regions.iter().any(|r| r.contains(va)));
        match stray {
            None => Ok(trace),
            Some(i) => Err(TraceFileError::Parse {
                line: i + 1 + other_lines.partition_point(|&before| before <= i),
                message: format!(
                    "address {:#x} lies outside every declared region",
                    trace.accesses[i].0
                ),
            }),
        }
    }

    /// Records a trace for later replay.
    pub fn from_parts(regions: Vec<Region>, accesses: Vec<VirtAddr>) -> FileTrace {
        FileTrace { regions, accesses }
    }

    /// The declared regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[VirtAddr] {
        &self.accesses
    }

    /// Serializes to the text format.
    ///
    /// # Errors
    ///
    /// Propagates writer failures, the final flush's included.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "# mehpt trace: {} regions, {} accesses",
            self.regions.len(),
            self.accesses.len()
        )?;
        for r in &self.regions {
            writeln!(
                w,
                "region {} {:#x} {:#x} {}",
                r.name,
                r.base.0,
                r.bytes,
                if r.thp_eligible { "thp" } else { "nothp" }
            )?;
        }
        for a in &self.accesses {
            writeln!(w, "{:#x}", a.0)?;
        }
        w.flush()
    }

    /// Converts into a replayable [`Workload`].
    ///
    /// If no regions were declared, one covering the accessed range is
    /// synthesized (not THP-eligible).
    pub fn into_workload(self, name: &str) -> Workload {
        let FileTrace {
            mut regions,
            accesses,
        } = self;
        if regions.is_empty() && !accesses.is_empty() {
            let lo = accesses.iter().map(|a| a.0).min().unwrap() & !((2 << 20) - 1);
            let hi = accesses.iter().map(|a| a.0).max().unwrap();
            regions.push(Region {
                name: "trace",
                base: VirtAddr::new(lo),
                bytes: (hi - lo + 1).next_multiple_of(2 << 20),
                thp_eligible: false,
            });
        }
        Workload::from_recorded(leak_name(name), regions, accesses)
    }
}

fn parse_hex(s: &str) -> Option<u64> {
    let s = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    u64::from_str_radix(s, 16).ok()
}

/// Region/workload names are `&'static str` throughout the crate (they
/// come from compile-time app specs); file-loaded names are leaked once.
fn leak_name(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a sample trace
region heap 0x10000000 0x400000 nothp
region table 0x20000000 0x200000 thp

0x10000040
0x10001080
0x200000c0
";

    #[test]
    fn parse_round_trip() {
        let t = FileTrace::parse(SAMPLE.as_bytes()).unwrap();
        assert_eq!(t.regions().len(), 2);
        assert_eq!(t.accesses().len(), 3);
        assert!(t.regions()[1].thp_eligible);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        let again = FileTrace::parse(&out[..]).unwrap();
        assert_eq!(again.regions(), t.regions());
        assert_eq!(again.accesses(), t.accesses());
    }

    /// A writer whose every write fails.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_buffered_write_error_is_returned() {
        let t = FileTrace::parse(SAMPLE.as_bytes()).unwrap();
        let err = t
            .write_to(std::io::BufWriter::new(FailingWriter))
            .expect_err("the buffered bytes never reach the writer");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn becomes_a_replayable_workload() {
        let t = FileTrace::parse(SAMPLE.as_bytes()).unwrap();
        let w = t.into_workload("sample");
        assert_eq!(w.name(), "sample");
        assert_eq!(w.total_accesses(), 3);
        let vas: Vec<u64> = w.map(|a| a.0).collect();
        assert_eq!(vas, vec![0x10000040, 0x10001080, 0x200000c0]);
    }

    #[test]
    fn synthesizes_a_region_when_missing() {
        let t = FileTrace::parse("0x1234000\n0x1239000\n".as_bytes()).unwrap();
        let w = t.into_workload("raw");
        assert_eq!(w.regions().len(), 1);
        let region = &w.regions()[0];
        assert!(region.contains(VirtAddr::new(0x1234000)));
        assert!(region.contains(VirtAddr::new(0x1239000)));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = FileTrace::parse("0x10\nnot-hex\n".as_bytes()).unwrap_err();
        match err {
            TraceFileError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
        let err = FileTrace::parse("region x 0x0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceFileError::Parse { line: 1, .. }));
        let past_the_end = "region x 0xffffffffffff0000 0x10000 nothp\n";
        let err = FileTrace::parse(past_the_end.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Parse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn refuses_an_address_outside_every_declared_region() {
        let text = SAMPLE.to_string() + "# stray\n\n0x20200000\n0x10000000\n";
        match FileTrace::parse(text.as_bytes()).unwrap_err() {
            TraceFileError::Parse { line, message } => {
                assert_eq!(line, 10, "{message}");
                assert!(message.contains("0x20200000"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
        // A region declared after an address still covers it.
        let late = "0x30001000\nregion late 0x30000000 0x200000 nothp\n0x30002000\n";
        assert_eq!(
            FileTrace::parse(late.as_bytes()).unwrap().accesses().len(),
            2
        );
        let err = FileTrace::parse(("0x1000\n".to_string() + late).as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Parse { line: 1, .. }),
            "{err}"
        );
    }
}
