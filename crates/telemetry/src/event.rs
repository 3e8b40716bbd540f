//! The telemetry event model: one flat record per JSONL line.
//!
//! The wire format is deliberately minimal — a single flat JSON object
//! per line with a fixed field order — so the parser can be a strict
//! hand-rolled scanner (the same philosophy as `sbp_sweep::json`, but
//! smaller: telemetry lines never nest).

use std::collections::HashMap;
use std::fmt::Write as _;

/// Wire-format version stamped into every line as `"v"`.
pub const SCHEMA_V: u64 = 1;

/// What a telemetry event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Span start; `id` names the span, `value` is unused (0).
    Begin,
    /// Span end; `id` matches the `Begin`, `value` is the advisory
    /// duration in microseconds (zeroed in the canonical projection).
    End,
    /// Monotone count attributed to the enclosing scope (`value`).
    Counter,
    /// Point-in-time measurement (`value`).
    Gauge,
    /// Instantaneous annotation with no value semantics.
    Mark,
}

impl Kind {
    /// Wire name (`"begin"`, `"end"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Begin => "begin",
            Kind::End => "end",
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Mark => "mark",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "begin" => Kind::Begin,
            "end" => Kind::End,
            "counter" => Kind::Counter,
            "gauge" => Kind::Gauge,
            "mark" => Kind::Mark,
            _ => return None,
        })
    }
}

/// One telemetry event — one line of the JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Catalog entry the event belongs to (may be empty before the
    /// first `set_entry` on the coordinator lane).
    pub entry: String,
    /// Emitting lane: 0 is the coordinator / in-process runner, worker
    /// shards are 1-based (`shard index + 1`).
    pub shard: u32,
    /// Plan job index for job-lane events; `None` for the control lane.
    pub job: Option<u64>,
    /// Per-lane sequence number, strictly increasing within a lane.
    pub seq: u32,
    /// Span ID for `Begin`/`End` (see [`span_id`]); 0 otherwise.
    pub id: u64,
    /// Whether the event is part of the deterministic projection.
    /// Deterministic events depend only on simulated state; advisory
    /// events (`det: false`) may carry wall-clock or scheduling data.
    pub det: bool,
    /// Microseconds since the sink was enabled. Advisory: zeroed in
    /// the canonical projection.
    pub ts_us: u64,
    /// Event kind.
    pub kind: Kind,
    /// Event name (span name, counter name, ...). Never empty.
    pub name: String,
    /// Numeric payload (counter increment, gauge value, end duration).
    pub value: f64,
    /// Free-form context string (job label, window index, ...).
    pub detail: String,
}

impl Event {
    /// Whether this event survives into the canonical projection.
    pub fn is_deterministic(&self) -> bool {
        self.det
    }

    /// Serializes the event as one JSON line (no trailing newline).
    ///
    /// Field order is fixed so identical events produce identical
    /// bytes. `job` is omitted entirely for control-lane events.
    /// Non-finite values serialize as 0 (emitters never produce them,
    /// but the wire format must stay valid JSON).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"v\":{},\"entry\":{},\"shard\":{}",
            SCHEMA_V,
            escape_json(&self.entry),
            self.shard
        );
        if let Some(job) = self.job {
            let _ = write!(s, ",\"job\":{job}");
        }
        let _ = write!(
            s,
            ",\"seq\":{},\"id\":{},\"det\":{},\"ts_us\":{},\"kind\":\"{}\",\"name\":{},\"value\":{},\"detail\":{}}}",
            self.seq,
            self.id,
            self.det,
            self.ts_us,
            self.kind.as_str(),
            escape_json(&self.name),
            fmt_value(self.value),
            escape_json(&self.detail),
        );
        s
    }

    /// Parses one JSONL line back into an [`Event`].
    ///
    /// Strict: the line must be a flat JSON object with exactly the
    /// fields [`to_line`](Self::to_line) emits (minus `job` for the
    /// control lane); unknown or duplicate fields are errors.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let fields = parse_flat_object(line)?;
        let mut seen: HashMap<&str, &Scalar> = HashMap::new();
        for (k, v) in &fields {
            if seen.insert(k.as_str(), v).is_some() {
                return Err(format!("duplicate field {k:?}"));
            }
        }
        const KNOWN: [&str; 11] = [
            "v", "entry", "shard", "job", "seq", "id", "det", "ts_us", "kind", "name", "value",
        ];
        for k in seen.keys() {
            if !KNOWN.contains(k) && *k != "detail" {
                return Err(format!("unknown field {k:?}"));
            }
        }
        let num = |k: &str| -> Result<f64, String> {
            match seen.get(k) {
                Some(Scalar::Num(n)) => n
                    .parse::<f64>()
                    .map_err(|_| format!("field {k:?}: bad number {n:?}")),
                Some(_) => Err(format!("field {k:?}: expected number")),
                None => Err(format!("missing field {k:?}")),
            }
        };
        let int = |k: &str| -> Result<u64, String> {
            match seen.get(k) {
                Some(Scalar::Num(n)) => n
                    .parse::<u64>()
                    .map_err(|_| format!("field {k:?}: bad integer {n:?}")),
                Some(_) => Err(format!("field {k:?}: expected integer")),
                None => Err(format!("missing field {k:?}")),
            }
        };
        let string = |k: &str| -> Result<String, String> {
            match seen.get(k) {
                Some(Scalar::Str(s)) => Ok(s.clone()),
                Some(_) => Err(format!("field {k:?}: expected string")),
                None => Err(format!("missing field {k:?}")),
            }
        };
        let boolean = |k: &str| -> Result<bool, String> {
            match seen.get(k) {
                Some(Scalar::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("field {k:?}: expected bool")),
                None => Err(format!("missing field {k:?}")),
            }
        };

        let v = int("v")?;
        if v != SCHEMA_V {
            return Err(format!("unsupported telemetry schema version {v}"));
        }
        let job = if seen.contains_key("job") {
            Some(int("job")?)
        } else {
            None
        };
        let kind_s = string("kind")?;
        let kind = Kind::parse(&kind_s).ok_or_else(|| format!("unknown event kind {kind_s:?}"))?;
        let name = string("name")?;
        if name.is_empty() {
            return Err("empty event name".into());
        }
        Ok(Event {
            entry: string("entry")?,
            shard: int("shard")? as u32,
            job,
            seq: int("seq")? as u32,
            id: int("id")?,
            det: boolean("det")?,
            ts_us: int("ts_us")?,
            kind,
            name,
            value: num("value")?,
            detail: string("detail")?,
        })
    }
}

/// Derives a span ID from lane coordinates — never from wall-clock or
/// randomness, so re-runs assign identical IDs.
///
/// Layout (high to low): 12 bits of shard, 32 bits of job index
/// (`0xFFFF_FFFF` marks the control lane), 20 bits of sequence stored
/// 1-based, so no span ID is 0 — not even the first span of job 0 on
/// lane 0, the in-process runner's lane.
pub fn span_id(shard: u32, job: Option<u64>, seq: u32) -> u64 {
    let job_part = match job {
        Some(j) => j & 0xFFFF_FFFF,
        None => 0xFFFF_FFFF,
    };
    ((shard as u64 & 0xFFF) << 52) | (job_part << 20) | (seq as u64 % 0xF_FFFF + 1)
}

/// Lane key: which (entry, shard, job) stream an event belongs to.
pub(crate) fn lane_key(e: &Event) -> (String, u32, Option<u64>) {
    (e.entry.clone(), e.shard, e.job)
}

/// The deterministic, byte-stable projection of an event stream.
///
/// Keeps only `det: true` events, zeroes every advisory payload
/// (timestamps always, `value` on `End` events whose payload is a
/// duration), and **renumbers** sequence numbers per lane so that
/// advisory events interleaved in the source stream do not shift the
/// surviving events' positions. Span IDs are remapped to match the
/// renumbered sequences via each span's `Begin`.
///
/// Lanes are emitted in a fixed order — entries in first-appearance
/// order, then `(shard, job)` ascending — with each lane's events kept
/// in source order, so the order in which parallel jobs happened to
/// flush does not leak into the projection. Two runs of the same work —
/// regardless of `--window-threads`, `--profile`, or telemetry
/// verbosity — produce byte-identical projections.
pub fn canonical_projection(events: &[Event]) -> Vec<Event> {
    let mut entry_rank: HashMap<&str, usize> = HashMap::new();
    let mut det: Vec<&Event> = events.iter().filter(|e| e.det).collect();
    for e in &det {
        let next = entry_rank.len();
        entry_rank.entry(e.entry.as_str()).or_insert(next);
    }
    // Stable: each lane keeps its source order.
    det.sort_by_key(|e| (entry_rank[e.entry.as_str()], e.shard, e.job));
    let mut next_seq: HashMap<(String, u32, Option<u64>), u32> = HashMap::new();
    let mut id_map: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in det {
        let mut c = e.clone();
        let seq = next_seq.entry(lane_key(e)).or_insert(0);
        c.seq = *seq;
        *seq += 1;
        c.ts_us = 0;
        match c.kind {
            Kind::Begin => {
                let new_id = span_id(c.shard, c.job, c.seq);
                id_map.insert(e.id, new_id);
                c.id = new_id;
            }
            Kind::End => {
                c.id = *id_map.get(&e.id).unwrap_or(&0);
                c.value = 0.0;
            }
            _ => {}
        }
        out.push(c);
    }
    out
}

/// Aggregate shape of a validated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimelineStats {
    /// Total events.
    pub events: usize,
    /// Completed spans (matched Begin/End pairs).
    pub spans: usize,
    /// Counter events.
    pub counters: usize,
    /// Gauge events.
    pub gauges: usize,
    /// Mark events.
    pub marks: usize,
}

/// Validates an event stream against the schema's structural rules.
///
/// Per lane (in stream order): sequence numbers strictly increase,
/// `Begin`/`End` bracket like a stack with matching IDs, and `Begin`
/// IDs are nonzero. Lanes may interleave freely in the stream (worker
/// sidecars interleave control events between job flushes).
pub fn validate(events: &[Event]) -> Result<TimelineStats, String> {
    let mut last_seq: HashMap<(String, u32, Option<u64>), u32> = HashMap::new();
    let mut stacks: HashMap<(String, u32, Option<u64>), Vec<u64>> = HashMap::new();
    let mut stats = TimelineStats {
        events: events.len(),
        ..TimelineStats::default()
    };
    for (i, e) in events.iter().enumerate() {
        let key = lane_key(e);
        if e.name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        if let Some(prev) = last_seq.get(&key) {
            if e.seq <= *prev {
                return Err(format!(
                    "event {i}: lane {key:?} seq {} not after {prev}",
                    e.seq
                ));
            }
        }
        last_seq.insert(key.clone(), e.seq);
        match e.kind {
            Kind::Begin => {
                if e.id == 0 {
                    return Err(format!("event {i}: begin with id 0"));
                }
                stacks.entry(key).or_default().push(e.id);
            }
            Kind::End => {
                let stack = stacks.entry(key.clone()).or_default();
                match stack.pop() {
                    Some(top) if top == e.id => stats.spans += 1,
                    Some(top) => {
                        return Err(format!(
                            "event {i}: end id {} does not match open span {top}",
                            e.id
                        ))
                    }
                    None => return Err(format!("event {i}: end with no open span in {key:?}")),
                }
            }
            Kind::Counter => stats.counters += 1,
            Kind::Gauge => stats.gauges += 1,
            Kind::Mark => stats.marks += 1,
        }
    }
    for (key, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("lane {key:?}: {} span(s) never ended", stack.len()));
        }
    }
    Ok(stats)
}

/// Formats an `f64` payload with shortest round-trip semantics
/// (`format!("{v}")`), mapping non-finite values to 0.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON-escapes a string, including the surrounding quotes.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A scalar JSON value in a flat telemetry object.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    /// Raw number token, parsed on demand so integers survive exactly.
    Num(String),
    Bool(bool),
}

/// Parses `{"k":scalar,...}` — a single flat object of scalar values.
/// Telemetry lines never nest, so rejecting `[`/`{` values keeps the
/// parser small and the format honest.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = Vec::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', found {other:?}")),
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(s),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, '/')) => s.push('/'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 'r')) => s.push('\r'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, 'b')) => s.push('\u{8}'),
                    Some((_, 'f')) => s.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {c:?} in \\u escape"))?;
                        }
                        // Surrogate pairs never occur (the writer emits
                        // \u only for C0 controls) but handle them for
                        // strict-JSON interop.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            let (_, b1) = chars.next().ok_or("truncated surrogate pair")?;
                            let (_, b2) = chars.next().ok_or("truncated surrogate pair")?;
                            if (b1, b2) != ('\\', 'u') {
                                return Err("unpaired surrogate".into());
                            }
                            let mut low = 0u32;
                            for _ in 0..4 {
                                let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                                low = low * 16
                                    + c.to_digit(16).ok_or_else(|| {
                                        format!("bad hex digit {c:?} in \\u escape")
                                    })?;
                            }
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("unpaired surrogate".into());
                            }
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        s.push(char::from_u32(c).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) if (c as u32) < 0x20 => {
                    return Err("raw control character in string".into())
                }
                Some((_, c)) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(format!("expected '{{', found {other:?}")),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(format!("expected ':', found {other:?}")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Scalar::Str(parse_string(&mut chars)?),
                Some((_, 't')) | Some((_, 'f')) => {
                    let mut word = String::new();
                    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_alphabetic()) {
                        word.push(chars.next().unwrap().1);
                    }
                    match word.as_str() {
                        "true" => Scalar::Bool(true),
                        "false" => Scalar::Bool(false),
                        w => return Err(format!("bad literal {w:?}")),
                    }
                }
                Some((_, c)) if *c == '-' || c.is_ascii_digit() => {
                    let mut tok = String::new();
                    while matches!(
                        chars.peek(),
                        Some((_, c)) if c.is_ascii_digit()
                            || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                    ) {
                        tok.push(chars.next().unwrap().1);
                    }
                    Scalar::Num(tok)
                }
                other => return Err(format!("unsupported value start {other:?}")),
            };
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing content at byte {i}: {c:?}"));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(det: bool, kind: Kind, seq: u32, job: Option<u64>) -> Event {
        let id = match kind {
            Kind::Begin | Kind::End => span_id(1, job, seq),
            _ => 0,
        };
        Event {
            entry: "fig01".into(),
            shard: 1,
            job,
            seq,
            id,
            det,
            ts_us: 123,
            kind,
            name: "job".into(),
            value: 2.5,
            detail: "mech=cf".into(),
        }
    }

    #[test]
    fn line_round_trips_exactly() {
        for job in [Some(3), None] {
            for kind in [
                Kind::Begin,
                Kind::End,
                Kind::Counter,
                Kind::Gauge,
                Kind::Mark,
            ] {
                let mut e = sample(true, kind, 5, job);
                e.detail = "quote \" slash \\ newline \n tab \t unicode ✓ \u{1}".into();
                let line = e.to_line();
                let back = Event::parse_line(&line).expect("parse");
                assert_eq!(back, e, "line: {line}");
                assert_eq!(back.to_line(), line);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let good = sample(true, Kind::Mark, 0, Some(1)).to_line();
        assert!(Event::parse_line(&good).is_ok());
        for bad in [
            "",
            "{",
            "not json",
            "{\"v\":1}",
            &good.replace("\"v\":1", "\"v\":2"),
            &good.replace("\"kind\":\"mark\"", "\"kind\":\"sideways\""),
            &good.replace("\"seq\":0", "\"seq\":0,\"seq\":1"),
            &good.replace("\"seq\":0", "\"seq\":0,\"mystery\":3"),
            &format!("{good} trailing"),
        ] {
            assert!(Event::parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn span_ids_are_positional_and_distinct() {
        assert_ne!(span_id(1, Some(0), 0), span_id(2, Some(0), 0));
        assert_ne!(span_id(1, Some(0), 0), span_id(1, Some(1), 0));
        assert_ne!(span_id(1, Some(0), 0), span_id(1, Some(0), 1));
        assert_ne!(span_id(1, Some(0), 0), span_id(1, None, 0));
        assert_eq!(span_id(3, Some(7), 9), span_id(3, Some(7), 9));
        assert_ne!(span_id(1, None, 4), 0);
        assert_ne!(
            span_id(0, Some(0), 0),
            0,
            "the in-process runner's first span"
        );
    }

    #[test]
    fn canonical_projection_drops_advisory_and_renumbers() {
        // Lane with an advisory counter wedged between det events: the
        // projection must close the seq gap and remap the span id.
        let events = vec![
            sample(true, Kind::Begin, 0, Some(2)),
            sample(false, Kind::Counter, 1, Some(2)),
            {
                let mut e = sample(true, Kind::End, 2, Some(2));
                e.id = span_id(1, Some(2), 0);
                e.value = 917.0; // advisory duration
                e
            },
        ];
        let canon = canonical_projection(&events);
        assert_eq!(canon.len(), 2);
        assert_eq!(canon[0].seq, 0);
        assert_eq!(canon[1].seq, 1);
        assert_eq!(canon[0].id, canon[1].id);
        assert_eq!(canon[1].value, 0.0);
        assert!(canon.iter().all(|e| e.ts_us == 0));
        // A second stream with extra advisory noise projects identically.
        let mut noisy = events.clone();
        noisy.insert(1, sample(false, Kind::Gauge, 3, Some(2)));
        let canon2 = canonical_projection(&noisy);
        let lines: Vec<String> = canon.iter().map(Event::to_line).collect();
        let lines2: Vec<String> = canon2.iter().map(Event::to_line).collect();
        assert_eq!(lines, lines2);
    }

    #[test]
    fn canonical_projection_ignores_job_flush_order() {
        // Jobs 3 and 1 flushed in either order (pool completion order)
        // must project to the same bytes, lanes in (shard, job) order.
        let lane = |job| {
            vec![sample(true, Kind::Mark, 0, Some(job)), {
                let mut e = sample(true, Kind::Gauge, 1, Some(job));
                e.name = "cycles".into();
                e
            }]
        };
        let a: Vec<Event> = [lane(3), lane(1)].concat();
        let b: Vec<Event> = [lane(1), lane(3)].concat();
        let project = |events: &[Event]| -> Vec<String> {
            canonical_projection(events)
                .iter()
                .map(Event::to_line)
                .collect()
        };
        assert_eq!(project(&a), project(&b));
        let jobs: Vec<Option<u64>> = canonical_projection(&a).iter().map(|e| e.job).collect();
        assert_eq!(jobs, [Some(1), Some(1), Some(3), Some(3)]);
    }

    #[test]
    fn validate_checks_lane_structure() {
        let ok = vec![
            sample(true, Kind::Begin, 0, Some(1)),
            sample(false, Kind::Counter, 1, Some(1)),
            {
                let mut e = sample(true, Kind::End, 2, Some(1));
                e.id = span_id(1, Some(1), 0);
                e
            },
        ];
        let stats = validate(&ok).expect("valid");
        assert_eq!(stats.events, 3);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.counters, 1);

        // Unbalanced span.
        let unbalanced = vec![sample(true, Kind::Begin, 0, Some(1))];
        assert!(validate(&unbalanced).is_err());

        // Non-increasing seq within a lane.
        let stuck = vec![
            sample(true, Kind::Mark, 1, Some(1)),
            sample(true, Kind::Mark, 1, Some(1)),
        ];
        assert!(validate(&stuck).is_err());

        // Mismatched end id.
        let mismatched = vec![sample(true, Kind::Begin, 0, Some(1)), {
            let mut e = sample(true, Kind::End, 1, Some(1));
            e.id = 999;
            e
        }];
        assert!(validate(&mismatched).is_err());
    }
}
