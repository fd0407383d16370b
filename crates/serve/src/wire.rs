//! Each table body and the health page, with its one header, its one
//! writer and its one reader side by side (DESIGN §5m): `/v1/devices`,
//! `/v1/compare?format=csv`, `/v1/similar` and `/v1/healthz`. Fields go
//! through `cactus_profiler::csv`, so names come back verbatim; a reader
//! skips the `#` preamble a route may write before the header. Floats print
//! `{:.6}`, so the property kept is `write(read(write(x))) == write(x)`.

use std::fmt::Write as _;

use cactus_profiler::csv::{push_field, read_table};

use crate::client::{ClientError, DeviceId};

const DEVICES_HEADER: &str = "device,modeled,name,store_version,sm_count,peak_gips,\
                              peak_gtxn_per_s,elbow_intensity,dram_bandwidth_gbps,l2_bytes";
const COMPARE_HEADER: &str = "device,kernel,instruction_intensity,gips,time_share,\
                              intensity_class,boundedness,bottleneck_shift";
const SIMILAR_HEADER: &str = "rank,id,distance";

/// The rows of `body`'s table under `header`, each read by `row`; anything
/// unreadable is a [`ClientError::Parse`] naming `what`.
fn read_rows<T, const N: usize>(
    body: &str,
    header: &str,
    what: &str,
    row: impl Fn(&[String; N]) -> Option<T>,
) -> Result<Vec<T>, ClientError> {
    let rows = read_table(body, header)
        .map_err(|e| ClientError::Parse(format!("bad {what} body: {e}")))?;
    rows.iter()
        .map(|fields| {
            <&[String; N]>::try_from(fields.as_slice())
                .ok()
                .and_then(&row)
                .ok_or_else(|| ClientError::Parse(format!("bad {what} row {fields:?}")))
        })
        .collect()
}

/// One `/v1/devices` catalog row: a device's identity, roofline ceilings,
/// and whether the answering backend models it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEntry {
    /// Canonical catalog id.
    pub id: DeviceId,
    /// Whether the answering backend models this device.
    pub modeled: bool,
    /// Marketing name (`RTX 3080`).
    pub name: String,
    /// Store version tag (`<model-version>.<device-rev>`).
    pub store_version: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Peak instruction throughput ceiling (GIPS).
    pub peak_gips: f64,
    /// Peak DRAM transaction throughput ceiling (Gtxn/s).
    pub peak_gtxn_per_s: f64,
    /// Roofline elbow (instructions per transaction).
    pub elbow_intensity: f64,
    /// DRAM bandwidth (GB/s).
    pub dram_bandwidth_gbps: f64,
    /// Last-level cache capacity (bytes).
    pub l2_bytes: u64,
}

impl DeviceEntry {
    /// Every catalog device in catalog order, flagged by `modeled(id)`.
    #[must_use]
    pub fn catalog(modeled: impl Fn(&str) -> bool) -> Vec<Self> {
        cactus_gpu::CATALOG
            .iter()
            .map(|entry| {
                let device = entry.device();
                Self {
                    id: DeviceId::from(entry),
                    modeled: modeled(entry.id),
                    store_version: entry.store_version(),
                    sm_count: device.sm_count,
                    peak_gips: device.peak_gips(),
                    peak_gtxn_per_s: device.peak_gtxn_per_s(),
                    elbow_intensity: device.elbow_intensity(),
                    dram_bandwidth_gbps: device.dram_bandwidth_gbps,
                    l2_bytes: device.l2.size_bytes,
                    name: device.name,
                }
            })
            .collect()
    }
}

/// Append the `/v1/devices` table: its header, then one row per entry.
pub fn write_devices(out: &mut String, rows: &[DeviceEntry]) {
    out.push_str(DEVICES_HEADER);
    out.push('\n');
    for r in rows {
        let _ = write!(out, "{},{},", r.id, r.modeled);
        push_field(out, &r.name);
        out.push(',');
        push_field(out, &r.store_version);
        let _ = writeln!(
            out,
            ",{},{:.6},{:.6},{:.6},{:.6},{}",
            r.sm_count,
            r.peak_gips,
            r.peak_gtxn_per_s,
            r.elbow_intensity,
            r.dram_bandwidth_gbps,
            r.l2_bytes,
        );
    }
}

/// Read a `/v1/devices` body, a backend's or the gateway's.
///
/// # Errors
///
/// [`ClientError::Parse`]: no header, a malformed row, an unknown device.
pub fn read_devices(body: &str) -> Result<Vec<DeviceEntry>, ClientError> {
    read_rows(
        body,
        DEVICES_HEADER,
        "devices",
        |[id, modeled, name, version, sm_count, gips, gtxn, elbow, dram, l2]| {
            Some(DeviceEntry {
                id: DeviceId::resolve(id).ok()?,
                modeled: modeled.parse().ok()?,
                name: name.clone(),
                store_version: version.clone(),
                sm_count: sm_count.parse().ok()?,
                peak_gips: gips.parse().ok()?,
                peak_gtxn_per_s: gtxn.parse().ok()?,
                elbow_intensity: elbow.parse().ok()?,
                dram_bandwidth_gbps: dram.parse().ok()?,
                l2_bytes: l2.parse().ok()?,
            })
        },
    )
}

/// One `/v1/compare` kernel row: one kernel's roofline placement on one
/// device. Columns 2–7 are byte-identical to that device's
/// `/v1/roofline` row for the same kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Device this row was simulated on.
    pub device: DeviceId,
    /// Kernel name.
    pub kernel: String,
    /// Instructions per DRAM transaction.
    pub instruction_intensity: f64,
    /// Achieved instruction throughput (GIPS).
    pub gips: f64,
    /// Share of the workload's total GPU time.
    pub time_share: f64,
    /// Roofline elbow side on this device (`memory` / `compute`).
    pub intensity_class: String,
    /// Ceiling classification on this device (`bandwidth` / `latency`).
    pub boundedness: String,
    /// True when this kernel's boundedness differs across the compared
    /// devices (the bottleneck shifts with the hardware).
    pub bottleneck_shift: bool,
}

/// Append the `/v1/compare?format=csv` table: its header, then one row per
/// `(device, kernel)` pair.
pub fn write_compare(out: &mut String, rows: &[CompareRow]) {
    out.push_str(COMPARE_HEADER);
    out.push('\n');
    for r in rows {
        let _ = write!(out, "{},", r.device);
        push_field(out, &r.kernel);
        let _ = write!(
            out,
            ",{:.6},{:.6},{:.6},",
            r.instruction_intensity, r.gips, r.time_share
        );
        push_field(out, &r.intensity_class);
        out.push(',');
        push_field(out, &r.boundedness);
        let _ = writeln!(out, ",{}", r.bottleneck_shift);
    }
}

/// Read a `/v1/compare?format=csv` body.
///
/// # Errors
///
/// [`ClientError::Parse`]: no header, a malformed row, an unknown device.
pub fn read_compare(body: &str) -> Result<Vec<CompareRow>, ClientError> {
    read_rows(
        body,
        COMPARE_HEADER,
        "compare",
        |[device, kernel, intensity, gips, share, class, bound, shift]| {
            Some(CompareRow {
                device: DeviceId::resolve(device).ok()?,
                kernel: kernel.clone(),
                instruction_intensity: intensity.parse().ok()?,
                gips: gips.parse().ok()?,
                time_share: share.parse().ok()?,
                intensity_class: class.clone(),
                boundedness: bound.clone(),
                bottleneck_shift: shift.parse().ok()?,
            })
        },
    )
}

/// One row of a `/v1/similar` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarHit {
    /// 1-based rank (ascending by distance).
    pub rank: usize,
    /// Stored profile id (`device/scale/workload/kernel`).
    pub id: String,
    /// Euclidean distance in the encoded metric space.
    pub distance: f64,
}

/// Append the `/v1/similar` table: its header, then one row per hit.
pub fn write_similar(out: &mut String, hits: &[SimilarHit]) {
    out.push_str(SIMILAR_HEADER);
    out.push('\n');
    for h in hits {
        let _ = write!(out, "{},", h.rank);
        push_field(out, &h.id);
        let _ = writeln!(out, ",{:.6}", h.distance);
    }
}

/// Read a `/v1/similar` body.
///
/// # Errors
///
/// [`ClientError::Parse`]: no header or a malformed row.
pub fn read_similar(body: &str) -> Result<Vec<SimilarHit>, ClientError> {
    read_rows(body, SIMILAR_HEADER, "similar", |[rank, id, distance]| {
        Some(SimilarHit {
            rank: rank.parse().ok()?,
            id: id.clone(),
            distance: distance.parse().ok()?,
        })
    })
}

/// The `/v1/healthz` body: line one exactly `ok`, so probes that match the
/// first line keep working; line two `devices <id> <id>...`, the devices
/// this backend models, which the gateway builds its capability map from.
#[must_use]
pub fn healthz_body(devices: &[&str]) -> String {
    format!("ok\ndevices {}\n", devices.join(" "))
}

/// The device ids of a `/v1/healthz` body's `devices` line; `None` when
/// the body has no such line (a gateway's own health page).
#[must_use]
pub fn parse_health_devices(body: &str) -> Option<Vec<String>> {
    body.lines()
        .find_map(|line| line.strip_prefix("devices "))
        .map(|ids| ids.split_whitespace().map(str::to_owned).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn similar_csv_parses_rows_and_skips_comments() {
        let body = "# query: rtx-3080/tiny/GMS/force\n\
                    # index: 12 vectors in 3 cells, 2 clusters\n\
                    # search: k=2 probed=5 pruned=7\n\
                    rank,id,distance\n\
                    1,rtx-3080/tiny/GMS/force,0.000000\n\
                    2,\"rtx-3080/tiny/GMS/odd,name\",1.250000\n";
        let hits = read_similar(body).expect("parse");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].rank, 1);
        assert_eq!(hits[0].id, "rtx-3080/tiny/GMS/force");
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits[1].id, "rtx-3080/tiny/GMS/odd,name");
        assert!(read_similar("rank,id,distance\nnot-a-row\n").is_err());
    }

    #[test]
    fn the_catalog_table_reads_back_as_the_catalog() {
        let rows = DeviceEntry::catalog(|id| id == "a100");
        let mut body = String::from("# backend 0 = 127.0.0.1:1: a100\n");
        write_devices(&mut body, &rows);
        let back = read_devices(&body).expect("read");
        assert_eq!(back.len(), cactus_gpu::CATALOG.len());
        assert!(back.iter().all(|d| d.modeled == (d.id.as_str() == "a100")));
        assert_eq!(back[0].name, rows[0].name);
    }

    #[test]
    fn unknown_devices_and_missing_headers_are_parse_errors() {
        let mut body = String::new();
        write_devices(&mut body, &DeviceEntry::catalog(|_| true));
        let renamed = body.replacen("\nrtx-3080,", "\nno-such-gpu,", 1);
        assert!(matches!(read_devices(&renamed), Err(ClientError::Parse(_))));
        assert!(matches!(read_compare("ok\n"), Err(ClientError::Parse(_))));
    }

    /// The renderer tests' alphabet: CSV's specials, the profile
    /// document's escapes, a carriage return and a multi-byte character.
    fn any_name() -> impl Strategy<Value = String> {
        let alphabet = [
            'a', 'Z', '_', '7', ' ', '\t', '\n', '\r', '\\', ',', '"', 'é',
        ];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..12)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            -1e6f64..1e6,
            proptest::sample::select(&[f64::NAN, f64::INFINITY, -0.0, f64::MAX]),
        ]
    }

    fn any_device() -> impl Strategy<Value = DeviceId> {
        let ids: Vec<DeviceId> = cactus_gpu::CATALOG.iter().map(DeviceId::from).collect();
        proptest::sample::select(&ids)
    }

    /// `#` lines naming names verbatim, as the compare and similar
    /// preambles do.
    fn any_preamble() -> impl Strategy<Value = String> {
        prop::collection::vec(any_name(), 0..3)
            .prop_map(|names| names.iter().map(|n| format!("# {n}\n")).collect())
    }

    fn any_device_row() -> impl Strategy<Value = DeviceEntry> {
        (
            (
                any_device(),
                0u32..2,
                any_name(),
                any_name(),
                0u32..u32::MAX,
            ),
            prop::collection::vec(any_f64(), 4),
            0u64..u64::MAX,
        )
            .prop_map(
                |((id, modeled, name, store_version, sm_count), x, l2_bytes)| DeviceEntry {
                    id,
                    modeled: modeled == 1,
                    name,
                    store_version,
                    sm_count,
                    peak_gips: x[0],
                    peak_gtxn_per_s: x[1],
                    elbow_intensity: x[2],
                    dram_bandwidth_gbps: x[3],
                    l2_bytes,
                },
            )
    }

    fn any_compare_row() -> impl Strategy<Value = CompareRow> {
        (
            (any_device(), any_name(), any_name(), any_name(), 0u32..2),
            prop::collection::vec(any_f64(), 3),
        )
            .prop_map(|((device, kernel, class, bound, shift), x)| CompareRow {
                device,
                kernel,
                instruction_intensity: x[0],
                gips: x[1],
                time_share: x[2],
                intensity_class: class,
                boundedness: bound,
                bottleneck_shift: shift == 1,
            })
    }

    fn any_hit() -> impl Strategy<Value = SimilarHit> {
        (0usize..1000, any_name(), any_f64()).prop_map(|(rank, id, distance)| SimilarHit {
            rank,
            id,
            distance,
        })
    }

    fn written<T>(write: fn(&mut String, &[T]), preamble: &str, rows: &[T]) -> String {
        let mut out = preamble.to_owned();
        write(&mut out, rows);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `write(read(write(x))) == write(x)` for each table, behind a
        /// preamble that names names verbatim.
        #[test]
        fn tables_read_back_what_was_written(
            devices in prop::collection::vec(any_device_row(), 0..4),
            compare in prop::collection::vec(any_compare_row(), 0..4),
            similar in prop::collection::vec(any_hit(), 0..4),
            preamble in any_preamble(),
        ) {
            let body = written(write_devices, &preamble, &devices);
            let back = read_devices(&body).expect("devices read");
            prop_assert_eq!(written(write_devices, "", &back), written(write_devices, "", &devices));

            let body = written(write_compare, &preamble, &compare);
            let back = read_compare(&body).expect("compare reads");
            prop_assert_eq!(written(write_compare, "", &back), written(write_compare, "", &compare));

            let body = written(write_similar, &preamble, &similar);
            let back = read_similar(&body).expect("similar reads");
            prop_assert_eq!(written(write_similar, "", &back), written(write_similar, "", &similar));
        }

        #[test]
        fn the_health_line_reads_back_exactly(
            ids in prop::collection::vec(proptest::sample::select(&["a100", "rtx-3080", "x_7"]), 0..4),
        ) {
            let body = healthz_body(&ids);
            prop_assert!(body.starts_with("ok\n"));
            prop_assert_eq!(parse_health_devices(&body), Some(ids.iter().map(|s| s.to_string()).collect()));
        }

        /// Arbitrary text, alone and under each header, reads as `Ok`,
        /// `Err` or `None`.
        #[test]
        fn reading_arbitrary_text_never_panics(text in any_name(), preamble in any_preamble()) {
            for header in [DEVICES_HEADER, COMPARE_HEADER, SIMILAR_HEADER, "devices", ""] {
                let body = format!("{preamble}{header}\n{text}");
                let _ = read_devices(&body);
                let _ = read_compare(&body);
                let _ = read_similar(&body);
                let _ = parse_health_devices(&body);
            }
            let _ = parse_health_devices(&text);
        }
    }
}
