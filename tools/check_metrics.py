#!/usr/bin/env python3
"""Validates trojanscout observability artifacts.

The file kind is auto-detected from its shape:
  * a JSON object with "traceEvents"      -> --trace-out Chrome trace
    (required event keys, monotone timestamps per tid, parent-id
    referential integrity, end-events matching an opened span, span args
    such as an engine frame's counters non-negative integers);
  * "schema": "trojanscout-profile-v1"    -> --profile-out phase profile;
  * "schema": "trojanscout-bench-v1"      -> --bench-out history artifact;
  * "schema": "trojanscout-corpus-v1"     -> fuzz --out mutation corpus;
  * first line starting with "# TYPE"     -> Prometheus text exposition
    (submit --metrics output: TYPE before samples, counter families end
    in _total, histogram buckets strictly increasing / cumulative with
    the +Inf bucket equal to _count);
  * a JSON object with "type": "stats"    -> daemon / fleet stats reply
    (submit --stats --json output; against a coordinator, the merged
    telemetry must equal the exact sum of the per-worker snapshots, and
    the sampler/series/slo blocks must be well-formed);
  * first line "type": "header" carrying
    "schema": "trojanscout-events-v1"     -> --events-out structured event
    log (known event types, required per-type fields, strictly
    increasing seq from 0);
  * anything else                         -> --metrics-out JSON lines,
    where every line must be a standalone JSON object with a "type" field
    validated against the schemas below (emitters: core/telemetry_sink.cpp,
    telemetry/progress.cpp, bench/bench_common.hpp).

CI runs this over every artifact a quick audit + bench run produces, so a
schema drift between the C++ emitters and this file fails the build.

Usage: check_metrics.py FILE [FILE...]
       check_metrics.py --diff-exposition BEFORE AFTER
       check_metrics.py --self-test

--diff-exposition validates two scrapes of the same target taken in that
order: every counter and histogram count present in BEFORE must still be
present in AFTER with a value >= BEFORE's — cumulative families never go
backwards over a daemon's lifetime, so a shrinking counter means the
scrape hit a restarted or different process.

Exit codes: 0 = all files valid, 1 = violation (details on stderr).
"""

import json
import math
import sys

# type -> {field: python type(s)}. int covers both signed and unsigned
# emitter fields; bool is checked before int (bool is an int subclass).
SCHEMAS = {
    "obligation": {
        "design": str,
        "engine": str,
        "property": str,
        "status": str,
        "violated": bool,
        "cancelled": bool,
        "bound_reached": bool,
        "proven_unbounded": bool,
        "engine_used": str,
        "frames_completed": int,
        "sat_decisions": int,
        "sat_propagations": int,
        "sat_conflicts": int,
        "sat_restarts": int,
        "sat_learned_clauses": int,
        "cnf_vars": int,
        "frame_clauses": list,
        "atpg_decisions": int,
        "atpg_backtracks": int,
        "atpg_implications": int,
        "atpg_frames_proven_clean": int,
        "atpg_frames_aborted": int,
        "pdr_frames": int,
        "pdr_pushed_clauses": int,
        "pdr_ctis": int,
        "pdr_obligations": int,
        "seconds": (int, float),
        "memory_bytes": int,
    },
    # One record per --engine portfolio race. The winner is deterministic;
    # the per-leg breakdown ("bmc.status", "bmc.seconds", ...) is
    # timing-flagged and therefore absent from timing-stripped reports, so
    # only the deterministic core is required here.
    "portfolio": {
        "design": str,
        "property": str,
        "winner": str,
    },
    "summary": {
        "design": str,
        "engine": str,
        "trojan_found": bool,
        "findings": int,
        "certified_pseudo_critical": int,
        "obligations": int,
        "trust_bound_frames": int,
        "signature_fnv1a": int,
        "total_seconds": (int, float),
        "peak_rss_bytes": int,
        "peak_rss_hwm_bytes": int,
    },
    # One counter snapshot: arbitrary metric names, all numeric.
    "counters": {},
    "bench": {
        "bench": str,
        "row": str,
        "engine": str,
        "property": str,
        "status": str,
        "violated": bool,
        "bound_reached": bool,
        "frames_completed": int,
        "sat_decisions": int,
        "sat_propagations": int,
        "sat_conflicts": int,
        "cnf_vars": int,
        "atpg_decisions": int,
        "atpg_backtracks": int,
        "seconds": (int, float),
        "memory_bytes": int,
    },
    "spec": {
        "design": str,
        "register": str,
        "ways": int,
        "obligations": int,
    },
    "scaling": {
        "workload": str,
        "jobs": int,
        "obligations": int,
        "deterministic": bool,
        "seconds": (int, float),
        "serial_seconds": (int, float),
    },
    # Stall-watchdog events appended from the --progress reporter.
    "stall": {
        "property": str,
        "at_frame": int,
        "progress_key": int,
        "stalled_seconds": (int, float),
    },
    # Verdict-cache snapshot appended by audits run with --cache-dir.
    "cache": {
        "dir": str,
        "mode": str,
        "hits": int,
        "misses": int,
        "stores": int,
        "evictions": int,
        "corrupt_skipped": int,
        "entries": int,
        "bytes": int,
    },
}


def check_field(record, key, expected):
    if key not in record:
        return f"missing field '{key}'"
    value = record[key]
    if expected is bool:
        if not isinstance(value, bool):
            return f"field '{key}' should be bool, got {type(value).__name__}"
        return None
    if isinstance(value, bool):  # bool passes isinstance(..., int); reject
        return f"field '{key}' should be {expected}, got bool"
    if not isinstance(value, expected):
        return f"field '{key}' has type {type(value).__name__}"
    return None


def check_line(lineno, line):
    errors = []
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"line {lineno}: invalid JSON: {e}"]
    if not isinstance(record, dict):
        return [f"line {lineno}: not a JSON object"]
    rtype = record.get("type")
    if rtype not in SCHEMAS:
        return [f"line {lineno}: unknown record type {rtype!r}"]
    # "type" must be the first key (insertion order is serialization order).
    if next(iter(record)) != "type":
        errors.append(f"line {lineno}: 'type' is not the first field")
    for key, expected in SCHEMAS[rtype].items():
        err = check_field(record, key, expected)
        if err:
            errors.append(f"line {lineno} ({rtype}): {err}")
    if rtype == "obligation":
        for v in record.get("frame_clauses", []):
            if not isinstance(v, int) or isinstance(v, bool):
                errors.append(
                    f"line {lineno} (obligation): frame_clauses entry "
                    f"{v!r} is not an integer")
                break
    if rtype == "portfolio":
        if record.get("winner") not in ("bmc", "atpg", "pdr"):
            errors.append(
                f"line {lineno} (portfolio): winner "
                f"{record.get('winner')!r} is not a concrete engine")
    if rtype == "counters":
        for key, value in record.items():
            if key == "type":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(
                    f"line {lineno} (counters): metric '{key}' is not "
                    f"numeric")
    return errors


# --events-out structured event log (telemetry/events.cpp): event type ->
# required fields. Emitters may add fields; these must be present and typed.
EVENTS_SCHEMA_NAME = "trojanscout-events-v1"
EVENT_SCHEMAS = {
    "header": {"schema": str, "pid": int},
    "worker_up": {"endpoint": str},
    "worker_down": {"endpoint": str, "reason": str},
    "worker_evicted": {"endpoint": str, "live": int},
    "worker_rejoined": {"endpoint": str, "live": int},
    "reshard": {"job": str, "obligations": int},
    "retry_after": {"job": str, "worker": str, "outstanding": int,
                    "requested": int, "retry_after_ms": int},
    "claim_steal": {"key": str, "age_s": (int, float)},
    "cache_corrupt_skip": {"key": str, "dir": str},
    # SLO deadline breach (fleet/coordinator.cpp): scope "job" carries the
    # whole-job overrun, scope "obligation" additionally names the worker
    # and property that blew the per-obligation budget.
    "slo_breach": {"job": str, "scope": str, "elapsed_ms": (int, float),
                   "slo_ms": (int, float)},
}

# telemetry::Registry::kHistogramBuckets (log2-microsecond buckets).
HISTOGRAM_BUCKETS = 40


def is_events_stream(text):
    """True when the first line is a trojanscout-events-v1 header record."""
    lines = text.splitlines()
    if not lines:
        return False
    try:
        record = json.loads(lines[0])
    except json.JSONDecodeError:
        return False
    return isinstance(record, dict) and record.get("type") == "header" \
        and record.get("schema") == EVENTS_SCHEMA_NAME


def check_events(text):
    """--events-out JSONL stream (telemetry/events.cpp)."""
    errors = []
    # The sink serializes every record under one mutex and numbers it from
    # 0, so seq must be contiguous — a gap means a record was lost between
    # emit() and the file.
    expected_seq = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON: {e}")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        rtype = record.get("type")
        if rtype not in EVENT_SCHEMAS:
            errors.append(f"line {lineno}: unknown event type {rtype!r}")
            continue
        if next(iter(record)) != "type":
            errors.append(f"line {lineno}: 'type' is not the first field")
        if (lineno == 1) != (rtype == "header"):
            errors.append(f"line {lineno}: header record must be exactly "
                          f"the first line")
        for key, expected in (("seq", int), ("ts_ms", int)):
            err = check_field(record, key, expected)
            if err:
                errors.append(f"line {lineno} ({rtype}): {err}")
        seq = record.get("seq")
        if seq != expected_seq:
            errors.append(f"line {lineno}: seq {seq!r} != expected "
                          f"{expected_seq}")
        if isinstance(seq, int) and not isinstance(seq, bool):
            expected_seq = seq + 1  # resync so one gap reports one error
        else:
            expected_seq += 1
        for key, expected in EVENT_SCHEMAS[rtype].items():
            err = check_field(record, key, expected)
            if err:
                errors.append(f"line {lineno} ({rtype}): {err}")
        if rtype == "slo_breach":
            scope = record.get("scope")
            if scope not in ("job", "obligation"):
                errors.append(f"line {lineno} (slo_breach): scope "
                              f"{scope!r} is not 'job' or 'obligation'")
            if scope == "obligation":
                for key, expected in (("worker", str), ("property", str)):
                    err = check_field(record, key, expected)
                    if err:
                        errors.append(f"line {lineno} (slo_breach): {err}")
        if rtype == "header" and record.get("schema") != EVENTS_SCHEMA_NAME:
            errors.append(f"line {lineno}: unknown events schema "
                          f"{record.get('schema')!r}")
    return errors


def check_snapshot(snapshot, label):
    """One telemetry::Registry snapshot (service/telemetry_wire.cpp)."""
    errors = []
    if not isinstance(snapshot, dict):
        return [f"{label}: snapshot is not an object"]
    counters = snapshot.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{label}: 'counters' is not an object")
    else:
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"{label}: counter '{name}' is not an integer")
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, dict):
        errors.append(f"{label}: 'histograms' is not an object")
        return errors
    for name, hist in histograms.items():
        hlabel = f"{label} histogram '{name}'"
        if not isinstance(hist, dict):
            errors.append(f"{hlabel}: not an object")
            continue
        for key, expected in (("count", int), ("sum_s", (int, float)),
                              ("min_s", (int, float)),
                              ("max_s", (int, float)), ("buckets", list)):
            err = check_field(hist, key, expected)
            if err:
                errors.append(f"{hlabel}: {err}")
        buckets = hist.get("buckets")
        if isinstance(buckets, list):
            if len(buckets) != HISTOGRAM_BUCKETS:
                errors.append(f"{hlabel}: {len(buckets)} buckets != "
                              f"{HISTOGRAM_BUCKETS}")
            if any(isinstance(b, bool) or not isinstance(b, int)
                   for b in buckets):
                errors.append(f"{hlabel}: non-integer bucket")
    return errors


def check_merged_telemetry(merged, worker_snapshots):
    """The coordinator's merged snapshot must be the exact sum of the
    per-worker snapshots it reports alongside: counters summed by name,
    histogram counts and buckets added element-wise (src/service/
    telemetry_wire.cpp merge_snapshot)."""
    errors = []
    want_counters = {}
    want_hist = {}
    for snapshot in worker_snapshots:
        for name, value in snapshot.get("counters", {}).items():
            want_counters[name] = want_counters.get(name, 0) + value
        for name, hist in snapshot.get("histograms", {}).items():
            if hist.get("count", 0) == 0:
                continue  # merge_snapshot skips empty histograms
            agg = want_hist.setdefault(
                name, {"count": 0, "sum_s": 0.0,
                       "buckets": [0] * HISTOGRAM_BUCKETS})
            agg["count"] += hist["count"]
            agg["sum_s"] += hist["sum_s"]
            agg["buckets"] = [a + b for a, b
                              in zip(agg["buckets"], hist["buckets"])]
    got_counters = merged.get("counters", {})
    for name, want in sorted(want_counters.items()):
        if got_counters.get(name) != want:
            errors.append(f"merged counter '{name}' = "
                          f"{got_counters.get(name)!r}, workers sum to "
                          f"{want}")
    for name in sorted(set(got_counters) - set(want_counters)):
        if got_counters[name] != 0:
            errors.append(f"merged counter '{name}' has no worker source")
    got_hist = merged.get("histograms", {})
    for name in sorted(set(want_hist) | set(got_hist)):
        want = want_hist.get(name)
        got = got_hist.get(name)
        if want is None:
            if got.get("count", 0) != 0:
                errors.append(f"merged histogram '{name}' has no worker "
                              f"source")
            continue
        if got is None:
            errors.append(f"merged telemetry lacks histogram '{name}'")
            continue
        if got.get("count") != want["count"]:
            errors.append(f"merged histogram '{name}' count "
                          f"{got.get('count')!r} != workers sum "
                          f"{want['count']}")
        if got.get("buckets") != want["buckets"]:
            errors.append(f"merged histogram '{name}' buckets are not the "
                          f"element-wise sum of the workers' buckets")
        # sum_s crossed a %.17g round-trip once more than the addends did.
        if not math.isclose(got.get("sum_s", 0.0), want["sum_s"],
                            rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"merged histogram '{name}' sum_s "
                          f"{got.get('sum_s')!r} != workers sum "
                          f"{want['sum_s']!r}")
    return errors


def check_series(series, label):
    """The "series" block of a stats reply: sampled windows, oldest first
    (service/telemetry_wire.cpp series_to_json)."""
    errors = []
    if not isinstance(series, list):
        return [f"{label}: not a list"]
    previous_seq = None
    for i, window in enumerate(series):
        wlabel = f"{label}[{i}]"
        if not isinstance(window, dict):
            errors.append(f"{wlabel}: not an object")
            continue
        for key, expected in (("seq", int), ("t_ms", int),
                              ("span_s", (int, float)), ("counters", dict),
                              ("histograms", dict)):
            err = check_field(window, key, expected)
            if err:
                errors.append(f"{wlabel}: {err}")
        seq = window.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if previous_seq is not None and seq != previous_seq + 1:
                errors.append(f"{wlabel}: seq {seq} does not follow "
                              f"{previous_seq}")
            previous_seq = seq
        for name, entry in window.get("counters", {}).items() \
                if isinstance(window.get("counters"), dict) else []:
            if not isinstance(entry, dict):
                errors.append(f"{wlabel}: counter '{name}' is not an object")
                continue
            for key in ("delta", "rate_per_s"):
                err = check_field(entry, key, (int, float))
                if err:
                    errors.append(f"{wlabel} counter '{name}': {err}")
        for name, entry in window.get("histograms", {}).items() \
                if isinstance(window.get("histograms"), dict) else []:
            if not isinstance(entry, dict):
                errors.append(f"{wlabel}: histogram '{name}' is not an "
                              f"object")
                continue
            for key in ("count", "sum_s", "p50_s", "p90_s", "p99_s"):
                err = check_field(entry, key, (int, float))
                if err:
                    errors.append(f"{wlabel} histogram '{name}': {err}")
            quantiles = [entry.get(k) for k in ("p50_s", "p90_s", "p99_s")]
            if all(isinstance(q, (int, float)) and not isinstance(q, bool)
                   for q in quantiles) and not (
                       quantiles[0] <= quantiles[1] <= quantiles[2]):
                errors.append(f"{wlabel} histogram '{name}': quantiles "
                              f"{quantiles} are not monotone")
    return errors


def check_slowest(slowest, label):
    """Tail-attribution table rows (fleet stats reply / report line)."""
    errors = []
    if not isinstance(slowest, list):
        return [f"{label}: not a list"]
    previous = None
    for i, row in enumerate(slowest):
        rlabel = f"{label}[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{rlabel}: not an object")
            continue
        for key, expected in (("property", str), ("worker", str),
                              ("total_us", int), ("phases", dict)):
            err = check_field(row, key, expected)
            if err:
                errors.append(f"{rlabel}: {err}")
        for name, us in row.get("phases", {}).items() \
                if isinstance(row.get("phases"), dict) else []:
            if isinstance(us, bool) or not isinstance(us, int):
                errors.append(f"{rlabel}: phase '{name}' is not an integer")
        total = row.get("total_us")
        if isinstance(total, int) and not isinstance(total, bool):
            if previous is not None and total > previous:
                errors.append(f"{rlabel}: total_us {total} out of "
                              f"descending order (previous {previous})")
            previous = total
    return errors


def check_stats(doc):
    """A daemon or fleet stats reply (submit --stats --json output)."""
    errors = []
    for key, expected in (("endpoint", str), ("pid", int),
                          ("uptime_s", (int, float)),
                          ("jobs_completed", int), ("bad_requests", int)):
        err = check_field(doc, key, expected)
        if err:
            errors.append(err)
    if "telemetry" in doc:
        errors.extend(check_snapshot(doc["telemetry"], "telemetry"))
    if "coordinator_telemetry" in doc:
        errors.extend(check_snapshot(doc["coordinator_telemetry"],
                                     "coordinator_telemetry"))
    if "slowest" in doc:
        errors.extend(check_slowest(doc["slowest"], "slowest"))
    if "uptime_ms" in doc:
        err = check_field(doc, "uptime_ms", int)
        if err:
            errors.append(err)
    sampler = doc.get("sampler")
    if sampler is not None:
        if not isinstance(sampler, dict):
            errors.append("'sampler' is not an object")
        else:
            for key, expected in (("enabled", bool),
                                  ("interval_ms", (int, float)),
                                  ("samples", int), ("last_age_ms", int)):
                err = check_field(sampler, key, expected)
                if err:
                    errors.append(f"sampler: {err}")
    if "series" in doc:
        errors.extend(check_series(doc["series"], "series"))
    slo = doc.get("slo")
    if slo is not None:
        if not isinstance(slo, dict):
            errors.append("'slo' is not an object")
        else:
            for key, expected in (("job_ms", (int, float)),
                                  ("obligation_ms", (int, float)),
                                  ("job_breaches", int),
                                  ("obligation_breaches", int)):
                err = check_field(slo, key, expected)
                if err:
                    errors.append(f"slo: {err}")
    workers = doc.get("workers")
    if workers is None:
        return errors  # single-daemon reply: no fan-out to cross-check
    if not isinstance(workers, list):
        return errors + ["'workers' is not a list"]
    snapshots = []
    for i, worker in enumerate(workers):
        label = f"worker {i}"
        if not isinstance(worker, dict):
            errors.append(f"{label}: not an object")
            continue
        for key, expected in (("endpoint", str), ("alive", bool),
                              ("outstanding", int)):
            err = check_field(worker, key, expected)
            if err:
                errors.append(f"{label}: {err}")
        if "responding" in worker:
            err = check_field(worker, "responding", bool)
            if err:
                errors.append(f"{label}: {err}")
            if worker["responding"] is False and "telemetry" in worker:
                errors.append(f"{label}: unresponsive worker still carries "
                              f"a telemetry snapshot")
        if "telemetry" in worker:
            errors.extend(check_snapshot(worker["telemetry"], label))
            snapshots.append(worker["telemetry"])
    if not errors and isinstance(doc.get("telemetry"), dict):
        errors.extend(check_merged_telemetry(doc["telemetry"], snapshots))
    return errors


def is_exposition(text):
    """True when the first non-empty line is a Prometheus # TYPE comment."""
    for line in text.splitlines():
        if line.strip():
            return line.startswith("# TYPE ")
    return False


def parse_exposition(text):
    """Parses Prometheus text exposition (format 0.0.4) enforcing the
    invariants the C++ renderer guarantees (service/exposition.cpp).
    Returns (families, errors); families maps family name ->
    {"type": ..., "samples": [(full_name, labels_str, value), ...]}."""
    errors = []
    families = {}
    sample_owner = {}  # metric base name -> family name

    def family_of(name):
        if name in sample_owner:
            return sample_owner[name]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in sample_owner:
                owner = sample_owner[name[:-len(suffix)]]
                if families[owner]["type"] == "histogram":
                    return owner
        return None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE comment")
                continue
            name, ftype = parts[2], parts[3]
            if ftype not in ("counter", "gauge", "histogram"):
                errors.append(f"line {lineno}: unknown family type "
                              f"{ftype!r}")
                continue
            if name in families:
                errors.append(f"line {lineno}: duplicate TYPE for "
                              f"'{name}'")
                continue
            if ftype == "counter" and not name.endswith("_total"):
                errors.append(f"line {lineno}: counter family '{name}' "
                              f"does not end in _total")
            families[name] = {"type": ftype, "samples": []}
            sample_owner[name] = name
            continue
        if line.startswith("#"):
            continue  # other comments are legal noise
        # Sample line: name[{labels}] value
        body = line.strip()
        brace = body.find("{")
        if brace >= 0:
            close = body.rfind("}")
            if close < brace:
                errors.append(f"line {lineno}: unbalanced labels")
                continue
            name = body[:brace]
            labels = body[brace + 1:close]
            rest = body[close + 1:].split()
        else:
            fields = body.split()
            if len(fields) < 2:
                errors.append(f"line {lineno}: sample lacks a value")
                continue
            name, labels, rest = fields[0], "", fields[1:]
        if not rest:
            errors.append(f"line {lineno}: sample lacks a value")
            continue
        try:
            value = float(rest[0])
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {rest[0]!r}")
            continue
        owner = family_of(name)
        if owner is None:
            errors.append(f"line {lineno}: sample '{name}' precedes its "
                          f"TYPE comment")
            continue
        families[owner]["samples"].append((name, labels, value))

    # Histogram shape: strictly increasing le, cumulative counts, a +Inf
    # bucket equal to _count, and both _sum and _count present.
    for name, family in families.items():
        if not family["samples"]:
            errors.append(f"family '{name}' declared but never sampled")
        if family["type"] == "counter":
            for sample_name, _, value in family["samples"]:
                if value < 0:
                    errors.append(f"counter '{sample_name}' is negative")
        if family["type"] != "histogram":
            continue
        buckets = []
        count = None
        has_sum = False
        for sample_name, labels, value in family["samples"]:
            if sample_name == name + "_bucket":
                le = None
                for part in labels.split(","):
                    if part.startswith("le="):
                        raw = part[3:].strip('"')
                        le = math.inf if raw == "+Inf" else float(raw)
                if le is None:
                    errors.append(f"histogram '{name}': bucket without le")
                    continue
                buckets.append((le, value))
            elif sample_name == name + "_count":
                count = value
            elif sample_name == name + "_sum":
                has_sum = True
        if count is None or not has_sum:
            errors.append(f"histogram '{name}': missing _count or _sum")
        for i in range(1, len(buckets)):
            if buckets[i][0] <= buckets[i - 1][0]:
                errors.append(f"histogram '{name}': le bounds not strictly "
                              f"increasing")
                break
            if buckets[i][1] < buckets[i - 1][1]:
                errors.append(f"histogram '{name}': bucket counts not "
                              f"cumulative")
                break
        if not buckets or not math.isinf(buckets[-1][0]):
            errors.append(f"histogram '{name}': missing +Inf bucket")
        elif count is not None and buckets[-1][1] != count:
            errors.append(f"histogram '{name}': +Inf bucket "
                          f"{buckets[-1][1]} != _count {count}")
    return families, errors


def check_exposition(text):
    return parse_exposition(text)[1]


def diff_expositions(before_text, after_text):
    """Cumulative families from two scrapes of one live process, taken in
    that order: every counter / histogram count in BEFORE must be present
    and >= in AFTER."""
    before, errors_a = parse_exposition(before_text)
    after, errors_b = parse_exposition(after_text)
    errors = [f"before: {e}" for e in errors_a]
    errors += [f"after: {e}" for e in errors_b]
    if errors:
        return errors

    def cumulative_samples(families):
        out = {}
        for name, family in families.items():
            if family["type"] == "counter":
                for sample_name, labels, value in family["samples"]:
                    out[f"{sample_name}{{{labels}}}"] = value
            elif family["type"] == "histogram":
                for sample_name, labels, value in family["samples"]:
                    if sample_name == name + "_count":
                        out[f"{sample_name}{{{labels}}}"] = value
        return out

    want = cumulative_samples(before)
    got = cumulative_samples(after)
    for key, old in sorted(want.items()):
        if key not in got:
            errors.append(f"'{key}' present before, missing after")
        elif got[key] < old:
            errors.append(f"'{key}' went backwards: {old} -> {got[key]} "
                          f"(scrape hit a restarted process?)")
    return errors


def check_trace(doc):
    """Chrome trace_event JSON from --trace-out (telemetry/span.cpp)."""
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    span_ids = set()
    last_ts = {}  # tid -> last timestamp seen in file order
    for i, ev in enumerate(events):
        label = f"event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{label}: not an object")
            continue
        for key, expected in (("name", str), ("ph", str), ("ts", (int, float)),
                              ("pid", int), ("tid", int), ("args", dict)):
            err = check_field(ev, key, expected)
            if err:
                errors.append(f"{label}: {err}")
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            errors.append(f"{label}: ph {ph!r} is not 'B' or 'E'")
            continue
        args = ev.get("args")
        if not isinstance(args, dict):
            continue
        if not isinstance(args.get("span_id"), int):
            errors.append(f"{label}: args.span_id missing or not int")
            continue
        if ph == "B":
            span_ids.add(args["span_id"])
            if not isinstance(args.get("parent_id"), int):
                errors.append(f"{label}: begin event lacks int parent_id")
        # The span's own args (an engine frame's counter deltas) are counts.
        for key, value in args.items():
            if key in ("span_id", "parent_id"):
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                errors.append(f"{label}: arg {key!r} = {value!r} is not a "
                              f"non-negative int")
        tid = ev.get("tid")
        ts = ev.get("ts")
        if isinstance(tid, int) and isinstance(ts, (int, float)):
            if tid in last_ts and ts < last_ts[tid]:
                errors.append(
                    f"{label}: ts {ts} goes backwards on tid {tid} "
                    f"(previous {last_ts[tid]})")
            last_ts[tid] = ts
    # Referential integrity over the whole file: parents must exist
    # (parent_id 0 = root) and every end event must close an opened span.
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or not isinstance(ev.get("args"), dict):
            continue
        span_id = ev["args"].get("span_id")
        parent = ev["args"].get("parent_id")
        if ev.get("ph") == "B" and isinstance(parent, int) and parent != 0 \
                and parent not in span_ids:
            errors.append(f"event {i}: parent_id {parent} never begun")
        if ev.get("ph") == "E" and span_id not in span_ids:
            errors.append(f"event {i}: end of span {span_id} never begun")
    if not errors and not events:
        errors.append("trace has no events")
    return errors


def check_phase_list(phases, label):
    errors = []
    if not isinstance(phases, list):
        return [f"{label}: 'phases' is not a list"]
    for phase in phases:
        if not isinstance(phase, dict):
            errors.append(f"{label}: phase entry is not an object")
            continue
        for key, expected in (("name", str), ("count", int)):
            err = check_field(phase, key, expected)
            if err:
                errors.append(f"{label} phase: {err}")
        # inclusive_us / exclusive_us are timing fields: present in normal
        # output, stripped in jobs-invariance comparisons — allow both.
        for key in ("inclusive_us", "exclusive_us"):
            if key in phase and (isinstance(phase[key], bool)
                                 or not isinstance(phase[key], int)):
                errors.append(f"{label} phase: '{key}' is not an integer")
    return errors


def check_profile(doc):
    """--profile-out JSON (telemetry/profile.cpp), with or without timing."""
    errors = []
    errors.extend(check_phase_list(doc.get("phases"), "profile"))
    obligations = doc.get("obligations")
    if not isinstance(obligations, list):
        errors.append("'obligations' is not a list")
        obligations = []
    for ob in obligations:
        if not isinstance(ob, dict) or not isinstance(ob.get("name"), str):
            errors.append("obligation entry lacks a string 'name'")
            continue
        errors.extend(
            check_phase_list(ob.get("phases", []), f"obligation {ob['name']}"))
    timers = doc.get("timers")
    if not isinstance(timers, list):
        errors.append("'timers' is not a list")
        timers = []
    for timer in timers:
        if not isinstance(timer, dict):
            errors.append("timer entry is not an object")
            continue
        for key, expected in (("name", str), ("count", int)):
            err = check_field(timer, key, expected)
            if err:
                errors.append(f"timer: {err}")
    return errors


def check_bench(doc):
    """--bench-out history artifact (bench/bench_common.cpp)."""
    errors = []
    for key, expected in (("bench", str), ("git_rev", str),
                          ("machine", dict), ("cases", list)):
        err = check_field(doc, key, expected)
        if err:
            errors.append(err)
    machine = doc.get("machine")
    if isinstance(machine, dict):
        for key, expected in (("hostname", str), ("hardware_threads", int),
                              ("page_size", int)):
            err = check_field(machine, key, expected)
            if err:
                errors.append(f"machine: {err}")
    for case in doc.get("cases", []) if isinstance(doc.get("cases"), list) \
            else []:
        if not isinstance(case, dict):
            errors.append("case entry is not an object")
            continue
        for key, expected in (("name", str), ("runs", int),
                              ("median_seconds", (int, float)),
                              ("min_seconds", (int, float)),
                              ("max_seconds", (int, float)),
                              ("stddev_seconds", (int, float))):
            err = check_field(case, key, expected)
            if err:
                errors.append(f"case {case.get('name', '?')}: {err}")
        if isinstance(case.get("runs"), int) and case["runs"] < 1:
            errors.append(f"case {case.get('name', '?')}: runs < 1")
    # The service-throughput bench must always emit its full case set —
    # a silently missing phase (e.g. every warm submit failed) would
    # otherwise slip past the bench_compare gate as "no regression".
    if doc.get("bench") == "service_throughput":
        required = {"cold/audit", "warm/p50", "warm/p99", "warm/mean",
                    "mixed/p50", "mixed/p99", "mixed/mean",
                    "sampler_off/mean", "sampler_on/mean"}
        names = {case.get("name") for case in doc.get("cases", [])
                 if isinstance(case, dict)}
        for missing in sorted(required - names):
            errors.append(f"service_throughput: case '{missing}' missing")
    return errors


def check_corpus(doc):
    """fuzz --out corpus artifact (src/fuzz/harness.cpp), with or without
    the timing block (stripped in jobs-invariance comparisons)."""
    errors = []
    for key, expected in (("seed", int), ("engine", str), ("count", int),
                          ("clean", list), ("variants", list),
                          ("summary", dict)):
        err = check_field(doc, key, expected)
        if err:
            errors.append(err)
    for leg in doc.get("clean", []) if isinstance(doc.get("clean"), list) \
            else []:
        if not isinstance(leg, dict):
            errors.append("clean entry is not an object")
            continue
        for key, expected in (("family", str), ("scanned", bool),
                              ("frames", int), ("obligations", int),
                              ("pass", bool)):
            err = check_field(leg, key, expected)
            if err:
                errors.append(f"clean {leg.get('family', '?')}: {err}")
    detected = 0
    reachable = 0
    variants = doc.get("variants")
    for v in variants if isinstance(variants, list) else []:
        if not isinstance(v, dict):
            errors.append("variant entry is not an object")
            continue
        label = f"variant {v.get('name', '?')}"
        for key, expected in (("name", str), ("family", str),
                              ("trigger", dict), ("payload", dict),
                              ("deep", bool), ("frames", int),
                              ("reachable", bool), ("detected", bool),
                              ("deterministic", bool), ("ok", bool)):
            err = check_field(v, key, expected)
            if err:
                errors.append(f"{label}: {err}")
        trigger = v.get("trigger")
        if isinstance(trigger, dict):
            for key, expected in (("kind", str), ("width", int),
                                  ("sequence_length", int), ("pattern", str),
                                  ("insertion_point", int)):
                err = check_field(trigger, key, expected)
                if err:
                    errors.append(f"{label} trigger: {err}")
        payload = v.get("payload")
        if isinstance(payload, dict):
            for key, expected in (("style", str), ("target", str),
                                  ("param", str)):
                err = check_field(payload, key, expected)
                if err:
                    errors.append(f"{label} payload: {err}")
        if v.get("detected") is True:
            detected += 1
            for key, expected in (("property", str),
                                  ("witness_confirmed", bool)):
                err = check_field(v, key, expected)
                if err:
                    errors.append(f"{label}: {err}")
        if v.get("reachable") is True:
            reachable += 1
        if v.get("ok") is False and not isinstance(v.get("failure"), str):
            errors.append(f"{label}: failing variant lacks 'failure'")
    summary = doc.get("summary")
    if isinstance(summary, dict):
        for key, expected in (("reachable", int), ("detected", int),
                              ("missed", int), ("false_positives", int),
                              ("harness_failures", int),
                              ("detection_rate", (int, float))):
            err = check_field(summary, key, expected)
            if err:
                errors.append(f"summary: {err}")
        rate = summary.get("detection_rate")
        if isinstance(rate, (int, float)) and not isinstance(rate, bool) \
                and not 0.0 <= rate <= 1.0:
            errors.append(f"summary: detection_rate {rate} outside [0, 1]")
        if summary.get("detected") != detected:
            errors.append(
                f"summary: detected {summary.get('detected')} != "
                f"{detected} detected variants")
        if summary.get("reachable") != reachable:
            errors.append(
                f"summary: reachable {summary.get('reachable')} != "
                f"{reachable} reachable variants")
    if isinstance(doc.get("count"), int) and isinstance(variants, list) \
            and doc["count"] != len(variants):
        errors.append(f"count {doc['count']} != {len(variants)} variants")
    timing = doc.get("timing")
    if timing is not None:
        if not isinstance(timing, dict):
            errors.append("'timing' is not an object")
        else:
            for key, expected in (("jobs", int),
                                  ("engine_quantiles", list),
                                  ("total_seconds", (int, float))):
                err = check_field(timing, key, expected)
                if err:
                    errors.append(f"timing: {err}")
            for q in timing.get("engine_quantiles", []) \
                    if isinstance(timing.get("engine_quantiles"), list) \
                    else []:
                if not isinstance(q, dict):
                    errors.append("timing: quantile entry is not an object")
                    continue
                for key, expected in (("engine", str), ("samples", int),
                                      ("p50_seconds", (int, float)),
                                      ("p90_seconds", (int, float)),
                                      ("p99_seconds", (int, float)),
                                      ("total_seconds", (int, float))):
                    err = check_field(q, key, expected)
                    if err:
                        errors.append(f"timing quantile: {err}")
    return errors


def check_text(path, text):
    errors = []
    if not text.strip():
        return [f"{path}: empty file"]

    # An events stream identifies itself on its first line (the whole file
    # never parses as one document, so this must precede the checks below).
    if is_events_stream(text):
        return [f"{path} (events): {e}" for e in check_events(text)]

    # A Prometheus exposition opens with its first family's TYPE comment
    # and is not JSON at all.
    if is_exposition(text):
        return [f"{path} (exposition): {e}" for e in check_exposition(text)]

    # Single-document artifacts (trace / profile / bench / stats) parse as
    # one JSON object; --metrics-out files are one object per line.
    doc = None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        pass
    if isinstance(doc, dict) and "traceEvents" in doc:
        return [f"{path} (trace): {e}" for e in check_trace(doc)]
    if isinstance(doc, dict) and doc.get("schema") == "trojanscout-profile-v1":
        return [f"{path} (profile): {e}" for e in check_profile(doc)]
    if isinstance(doc, dict) and doc.get("schema") == "trojanscout-bench-v1":
        return [f"{path} (bench): {e}" for e in check_bench(doc)]
    if isinstance(doc, dict) and doc.get("schema") == "trojanscout-corpus-v1":
        return [f"{path} (corpus): {e}" for e in check_corpus(doc)]
    if isinstance(doc, dict) and "schema" in doc:
        return [f"{path}: unknown schema {doc['schema']!r}"]
    if isinstance(doc, dict) and doc.get("type") == "stats":
        return [f"{path} (stats): {e}" for e in check_stats(doc)]

    for lineno, line in enumerate(text.splitlines(), start=1):
        errors.extend(f"{path}: {e}" for e in check_line(lineno, line))
    return errors


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return [f"{path}: {e}"]
    return check_text(path, text)


def _self_test_samples():
    """(name, text, should_pass) fixtures exercising every validator."""
    def jsonl(*records):
        return "".join(json.dumps(r) + "\n" for r in records)

    def hist(count, sum_s, buckets):
        full = [0] * HISTOGRAM_BUCKETS
        for index, value in buckets.items():
            full[index] = value
        return {"count": count, "sum_s": sum_s, "min_s": 0.001,
                "max_s": 0.25, "buckets": full}

    header = {"type": "header", "seq": 0, "ts_ms": 1, "schema":
              EVENTS_SCHEMA_NAME, "pid": 42}
    good_events = jsonl(
        header,
        {"type": "worker_up", "seq": 1, "ts_ms": 2, "endpoint": "tcp:w0"},
        {"type": "retry_after", "seq": 2, "ts_ms": 3, "job": "j", "worker":
         "tcp:w0", "outstanding": 60, "requested": 10, "retry_after_ms": 200},
        {"type": "worker_down", "seq": 3, "ts_ms": 4, "endpoint": "tcp:w0",
         "reason": "health ping failed"},
        {"type": "worker_evicted", "seq": 4, "ts_ms": 4, "endpoint":
         "tcp:w0", "live": 1},
        {"type": "reshard", "seq": 5, "ts_ms": 5, "job": "j",
         "obligations": 7},
        {"type": "claim_steal", "seq": 6, "ts_ms": 6, "key": "k",
         "age_s": 31.5},
        {"type": "cache_corrupt_skip", "seq": 7, "ts_ms": 7, "key": "k",
         "dir": "/tmp/l2"},
        {"type": "worker_rejoined", "seq": 8, "ts_ms": 9, "endpoint":
         "tcp:w0", "live": 2},
        {"type": "slo_breach", "seq": 9, "ts_ms": 10, "job": "j",
         "scope": "job", "elapsed_ms": 104.5, "slo_ms": 100},
        {"type": "slo_breach", "seq": 10, "ts_ms": 11, "job": "j",
         "scope": "obligation", "property": "sp/way0", "worker": "tcp:w0",
         "elapsed_ms": 55.0, "slo_ms": 50})
    gap_events = jsonl(
        header,
        {"type": "worker_up", "seq": 2, "ts_ms": 2, "endpoint": "tcp:w0"})
    unknown_events = jsonl(
        header,
        {"type": "meltdown", "seq": 1, "ts_ms": 2})
    misfield_events = jsonl(
        header,
        {"type": "worker_down", "seq": 1, "ts_ms": 2, "endpoint": "tcp:w0"})
    # An obligation-scope breach must name the worker that blew the budget.
    anonymous_breach = jsonl(
        header,
        {"type": "slo_breach", "seq": 1, "ts_ms": 2, "job": "j",
         "scope": "obligation", "elapsed_ms": 55.0, "slo_ms": 50})

    obligation = {
        "type": "obligation", "design": "router", "engine": "PORTFOLIO",
        "property": "hdr/corruption", "status": "proven-unbounded",
        "violated": False, "cancelled": False, "bound_reached": True,
        "proven_unbounded": True, "engine_used": "pdr",
        "frames_completed": 8, "invariant_clauses": 3, "sat_decisions": 10,
        "sat_propagations": 90, "sat_conflicts": 2, "sat_restarts": 0,
        "sat_learned_clauses": 2, "cnf_vars": 64, "frame_clauses": [],
        "atpg_decisions": 0, "atpg_backtracks": 0, "atpg_implications": 0,
        "atpg_frames_proven_clean": 0, "atpg_frames_aborted": 0,
        "pdr_frames": 3, "pdr_pushed_clauses": 4, "pdr_ctis": 5,
        "pdr_obligations": 6, "seconds": 0.02, "memory_bytes": 4096}
    race = {
        "type": "portfolio", "design": "router",
        "property": "hdr/corruption", "winner": "pdr",
        "bmc.status": "cancelled", "bmc.cancelled": True,
        "bmc.seconds": 0.01, "atpg.status": "cancelled",
        "atpg.cancelled": True, "atpg.seconds": 0.01,
        "pdr.status": "proven-unbounded", "pdr.cancelled": False,
        "pdr.seconds": 0.02}
    good_report = jsonl(
        obligation, race,
        {"type": "counters", "portfolio.win.pdr": 1,
         "portfolio.cancelled.bmc": 1})
    legacy_obligation = json.loads(json.dumps(obligation))
    del legacy_obligation["proven_unbounded"]  # pre-portfolio emitter
    stale_report = jsonl(legacy_obligation)
    headless_race = json.loads(json.dumps(race))
    headless_race["winner"] = "portfolio"  # winner must be a concrete leg
    bad_winner_report = jsonl(headless_race)

    w0 = {"counters": {"fleet.jobs": 3, "cache.hits": 5},
          "histograms": {"engine.solve": hist(4, 0.5, {10: 3, 12: 1})}}
    w1 = {"counters": {"fleet.jobs": 2},
          "histograms": {"engine.solve": hist(1, 0.25, {11: 1}),
                         "cache.read": hist(0, 0.0, {})}}
    merged = {"counters": {"cache.hits": 5, "fleet.jobs": 5},
              "histograms": {"engine.solve":
                             hist(5, 0.75, {10: 3, 11: 1, 12: 1})}}
    stats = {
        "type": "stats", "endpoint": "tcp:127.0.0.1:7", "role":
        "coordinator", "pid": 42, "uptime_s": 1.5, "jobs_completed": 5,
        "retry_after_sent": 0, "reshards": 1, "bad_requests": 0,
        "uptime_ms": 1500,
        "sampler": {"enabled": True, "interval_ms": 1000.0, "samples": 3,
                    "last_age_ms": 120},
        "series": [
            {"seq": 0, "t_ms": 1000, "span_s": 1.0,
             "counters": {"fleet.jobs": {"delta": 2, "rate_per_s": 2.0}},
             "histograms": {"engine.solve":
                            {"count": 3, "sum_s": 0.4, "p50_s": 0.1,
                             "p90_s": 0.2, "p99_s": 0.25}}},
            {"seq": 1, "t_ms": 2000, "span_s": 1.0, "counters": {},
             "histograms": {}}],
        "slo": {"job_ms": 0, "obligation_ms": 0, "job_breaches": 0,
                "obligation_breaches": 0},
        "workers": [
            {"endpoint": "tcp:w0", "alive": True, "responding": True,
             "outstanding": 0, "pid": 43, "uptime_s": 1.0,
             "jobs_completed": 3, "bad_requests": 0, "telemetry": w0},
            {"endpoint": "tcp:w1", "alive": True, "responding": True,
             "outstanding": 0, "pid": 44, "uptime_s": 1.0,
             "jobs_completed": 2, "bad_requests": 0, "telemetry": w1}],
        "telemetry": merged,
        "coordinator_telemetry": {"counters": {"fleet.retry_after": 0},
                                  "histograms": {}},
        "slowest": [
            {"property": "p0", "worker": "tcp:w0", "total_us": 900,
             "phases": {"solve": 700, "encode": 200}},
            {"property": "p1", "worker": "tcp:w1", "total_us": 400,
             "phases": {"solve": 400}}],
    }
    bad_counter = json.loads(json.dumps(stats))
    bad_counter["telemetry"]["counters"]["fleet.jobs"] = 6
    bad_buckets = json.loads(json.dumps(stats))
    bad_buckets["telemetry"]["histograms"]["engine.solve"]["buckets"][13] = 1
    short_buckets = json.loads(json.dumps(stats))
    short_buckets["workers"][0]["telemetry"]["histograms"]["engine.solve"][
        "buckets"].pop()
    unsorted_tail = json.loads(json.dumps(stats))
    unsorted_tail["slowest"].reverse()
    gapped_series = json.loads(json.dumps(stats))
    gapped_series["series"][1]["seq"] = 5
    ghost_snapshot = json.loads(json.dumps(stats))
    ghost_snapshot["workers"][1]["responding"] = False

    exposition = (
        "# TYPE trojanscout_cache_hit_total counter\n"
        "trojanscout_cache_hit_total 42\n"
        "# TYPE trojanscout_worker_up gauge\n"
        "trojanscout_worker_up{worker=\"tcp:w0\"} 1\n"
        "trojanscout_worker_up{worker=\"tcp:w1\"} 0\n"
        "# TYPE trojanscout_solve_seconds histogram\n"
        "trojanscout_solve_seconds_bucket{le=\"0.001024\"} 1\n"
        "trojanscout_solve_seconds_bucket{le=\"0.004096\"} 2\n"
        "trojanscout_solve_seconds_bucket{le=\"+Inf\"} 2\n"
        "trojanscout_solve_seconds_sum 0.005\n"
        "trojanscout_solve_seconds_count 2\n")
    orphan_sample = ("# TYPE trojanscout_ok_total counter\n"
                     "trojanscout_ok_total 1\n"
                     "trojanscout_orphan_total 42\n")
    shrinking_buckets = exposition.replace(
        "le=\"0.004096\"} 2", "le=\"0.004096\"} 0")
    inf_mismatch = exposition.replace("le=\"+Inf\"} 2", "le=\"+Inf\"} 3")
    untotaled_counter = exposition.replace(
        "trojanscout_cache_hit_total", "trojanscout_cache_hit")
    grown = exposition.replace(
        "trojanscout_cache_hit_total 42", "trojanscout_cache_hit_total 50")
    shrunk = exposition.replace(
        "trojanscout_cache_hit_total 42", "trojanscout_cache_hit_total 7")

    trace = {"traceEvents": [
        {"name": "fleet:job:fleet-1", "ph": "B", "ts": 0, "pid": 1,
         "tid": 1, "args": {"span_id": 1, "parent_id": 0}},
        {"name": "obligation:p0", "ph": "B", "ts": 5, "pid": 1, "tid": 1000,
         "args": {"span_id": 2, "parent_id": 1}},
        {"name": "obligation:p0", "ph": "E", "ts": 9, "pid": 1, "tid": 1000,
         "args": {"span_id": 2}},
        {"name": "fleet:job:fleet-1", "ph": "E", "ts": 10, "pid": 1,
         "tid": 1, "args": {"span_id": 1}}]}
    bad_trace = json.loads(json.dumps(trace))
    bad_trace["traceEvents"][2]["ts"] = 3  # backwards on tid 1000
    frame_trace = json.loads(json.dumps(trace))
    frame_trace["traceEvents"][1:3] = [
        {"name": "bmc:frame", "ph": "B", "ts": 5, "pid": 1, "tid": 1000,
         "args": {"span_id": 2, "parent_id": 1}},
        {"name": "bmc:frame", "ph": "E", "ts": 9, "pid": 1, "tid": 1000,
         "args": {"span_id": 2, "frame": 0, "decisions": 25,
                  "propagations": 178, "conflicts": 3, "restarts": 0}}]
    negative_arg = json.loads(json.dumps(frame_trace))
    negative_arg["traceEvents"][2]["args"]["conflicts"] = -3

    return [
        ("events/good", good_events, True),
        ("events/seq-gap", gap_events, False),
        ("events/unknown-type", unknown_events, False),
        ("events/missing-field", misfield_events, False),
        ("events/anonymous-slo-breach", anonymous_breach, False),
        ("report/portfolio-good", good_report, True),
        ("report/missing-proven-unbounded", stale_report, False),
        ("report/portfolio-bad-winner", bad_winner_report, False),
        ("stats/good", json.dumps(stats), True),
        ("stats/merged-counter-drift", json.dumps(bad_counter), False),
        ("stats/merged-bucket-drift", json.dumps(bad_buckets), False),
        ("stats/short-buckets", json.dumps(short_buckets), False),
        ("stats/tail-unsorted", json.dumps(unsorted_tail), False),
        ("stats/series-seq-gap", json.dumps(gapped_series), False),
        ("stats/unresponsive-with-snapshot", json.dumps(ghost_snapshot),
         False),
        ("exposition/good", exposition, True),
        ("exposition/sample-before-type", orphan_sample, False),
        ("exposition/shrinking-buckets", shrinking_buckets, False),
        ("exposition/inf-count-mismatch", inf_mismatch, False),
        ("exposition/counter-without-total", untotaled_counter, False),
        ("trace/good", json.dumps(trace), True),
        ("trace/backwards-ts", json.dumps(bad_trace), False),
        ("trace/frame-args", json.dumps(frame_trace), True),
        ("trace/negative-arg", json.dumps(negative_arg), False),
        ("unknown-schema", json.dumps({"schema": "trojanscout-bogus-v9"}),
         False),
        ("diff/monotone", (exposition, grown), True),
        ("diff/backwards", (exposition, shrunk), False),
    ]


def self_test():
    """Runs the embedded fixtures through check_text; the validator must
    accept every good sample and reject every bad one."""
    failures = []
    for name, text, should_pass in _self_test_samples():
        if isinstance(text, tuple):  # (before, after) exposition diff pair
            errors = diff_expositions(*text)
        else:
            errors = check_text(name, text)
        if should_pass and errors:
            failures.append(f"{name}: expected clean, got: " +
                            "; ".join(errors))
        if not should_pass and not errors:
            failures.append(f"{name}: expected a violation, got none")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"check_metrics --self-test: FAILED ({len(failures)})",
              file=sys.stderr)
        return 1
    print(f"check_metrics --self-test: OK "
          f"({len(_self_test_samples())} fixtures)")
    return 0


def diff_exposition_files(before_path, after_path):
    errors = []
    texts = []
    for path in (before_path, after_path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                texts.append(f.read())
        except OSError as e:
            errors.append(f"{path}: {e}")
    if not errors:
        errors = diff_expositions(*texts)
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"check_metrics --diff-exposition: FAILED "
              f"({len(errors)} violations)", file=sys.stderr)
        return 1
    print(f"check_metrics --diff-exposition: OK "
          f"({before_path} -> {after_path})")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) == 4 and argv[1] == "--diff-exposition":
        return diff_exposition_files(argv[2], argv[3])
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check_file(path))
    for error in all_errors:
        print(error, file=sys.stderr)
    if all_errors:
        print(f"check_metrics: FAILED ({len(all_errors)} violations)",
              file=sys.stderr)
        return 1
    print(f"check_metrics: OK ({len(argv) - 1} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
