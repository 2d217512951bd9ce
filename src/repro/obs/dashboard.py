"""``repro dash`` — a self-contained HTML dashboard, stdlib only.

The generator folds whatever evidence exists on disk into one JSON
payload and embeds it in a single HTML file with inline JS/CSS and no
external assets (no CDN scripts, no fonts, no image URLs), so the file
is archivable as a CI artifact and opens identically on a plane:

* the service's content-addressed **store** — one row per finished
  job with its always-on latency percentiles, plus the per-job
  progress time series the service records next to the results;
* the **drain counters / telemetry summary** from a ``repro serve
  --drain`` output JSON (cache hits, sheds, retries, worker crashes);
* the AFC **mode duty-cycle** table (``bench_mode_duty_cycle``
  output) rendered as a residency heatmap;
* the archived **BENCH_*.json** benchmark trajectory with the
  ``check_bench_regression.py`` verdict inlined as a pass/fail
  banner.

Every section renders only when its data exists — a dashboard over a
bare store is just the (empty) jobs table.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import List, Optional

__all__ = [
    "collect_payload",
    "render_dashboard",
    "build_dashboard",
]

#: Result fields worth a column, per job kind (missing ones skipped).
_SUMMARY_FIELDS = (
    "throughput",
    "avg_packet_latency",
    "p50_packet_latency",
    "p95_packet_latency",
    "p99_packet_latency",
    "delivered_packet_rate",
    "fault_events",
    "retransmissions",
    "reroutes",
    "credit_resyncs",
)


def _parse_duty_cycle(text: str) -> Optional[dict]:
    """The ``mode_duty_cycle.txt`` table as ``{"columns", "rows"}``.

    Format (written by ``benchmarks/bench_mode_duty_cycle.py``)::

        workload | backpressured | ... | gossip
        ---------+---------------+-...-+-------
        apache   | 0.991         | ... | 0.0
    """
    header = None
    rows: List[dict] = []
    for line in text.splitlines():
        if "|" not in line:
            continue
        if set(line) <= set("-+| "):
            continue
        cells = [cell.strip() for cell in line.split("|")]
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            continue
        row = {"workload": cells[0]}
        for name, cell in zip(header[1:], cells[1:]):
            try:
                row[name] = float(cell)
            except ValueError:
                row[name] = cell
        rows.append(row)
    if header is None or not rows:
        return None
    return {"columns": header[1:], "rows": rows}


def _job_entry(record: dict, series: List[dict]) -> dict:
    """One jobs-table row from a store record + its progress series."""
    spec = record.get("spec") or {}
    result = record.get("result") or {}
    entry = {
        "key": record.get("key", ""),
        "kind": record.get("kind", spec.get("kind", "?")),
        "design": spec.get("design"),
        "target": spec.get("workload", spec.get("rate")),
        "seeds": spec.get("seeds"),
        "version": record.get("version"),
        "summary": {
            name: result[name]
            for name in _SUMMARY_FIELDS
            if isinstance(result.get(name), (int, float))
        },
        "series": series,
    }
    return entry


def collect_payload(
    store=None,
    bench_dir=None,
    counters: Optional[dict] = None,
    telemetry_summary: Optional[dict] = None,
    regression: Optional[dict] = None,
) -> dict:
    """Gather every available data source into the embedded payload."""
    payload: dict = {"version": 1, "jobs": []}
    if store is not None:
        for key in store.keys():
            record = store.get(key)
            if record is None:
                continue
            payload["jobs"].append(
                _job_entry(record, store.series(key))
            )
    if counters:
        payload["counters"] = dict(counters)
    if telemetry_summary:
        payload["telemetry_summary"] = dict(telemetry_summary)
    if regression:
        payload["regression"] = regression
    if bench_dir is not None:
        bench_dir = Path(bench_dir)
        duty = bench_dir / "mode_duty_cycle.txt"
        if duty.exists():
            payload["duty_cycle"] = _parse_duty_cycle(
                duty.read_text(encoding="utf-8")
            )
        bench: dict = {}
        for name in ("BENCH_simulator", "BENCH_observability"):
            path = bench_dir / f"{name}.json"
            if not path.exists():
                continue
            try:
                bench[name] = json.loads(
                    path.read_text(encoding="utf-8")
                )
            except json.JSONDecodeError:
                continue
        if bench:
            payload["bench"] = bench
    return payload


#: Inline stylesheet — deliberately plain; the contract is "no external
#: assets", not "pretty".
_CSS = """
body{font-family:system-ui,sans-serif;margin:0;background:#f4f5f7;color:#1b1f24}
header{background:#1b2a41;color:#fff;padding:14px 24px}
header h1{margin:0;font-size:20px}
header .sub{color:#9fb3c8;font-size:12px;margin-top:4px}
section{background:#fff;margin:16px 24px;padding:14px 18px;border-radius:6px;
 box-shadow:0 1px 2px rgba(0,0,0,.08)}
section h2{margin:0 0 10px;font-size:15px;border-bottom:1px solid #e1e4e8;
 padding-bottom:6px}
table{border-collapse:collapse;font-size:12px;width:100%}
th,td{padding:4px 8px;text-align:right;border-bottom:1px solid #eef0f2}
th{color:#57606a;font-weight:600}
td.l,th.l{text-align:left}
.mono{font-family:ui-monospace,monospace}
.bar{display:inline-block;height:9px;background:#4c8dd6;vertical-align:middle;
 border-radius:2px}
.bar.p95{background:#e8a33d}.bar.p99{background:#d35f5f}
.badge{display:inline-block;padding:2px 10px;border-radius:10px;font-size:12px;
 font-weight:600;color:#fff}
.badge.ok{background:#2da44e}.badge.fail{background:#cf222e}
.cell{min-width:54px}
.counters span{display:inline-block;margin:2px 14px 2px 0;font-size:13px}
.counters b{font-size:16px}
svg text{font-family:system-ui,sans-serif}
.empty{color:#8b949e;font-size:13px}
"""

#: The renderer.  Vanilla DOM building from the embedded payload; each
#: panel no-ops when its slice of the payload is absent.
_JS = r"""
var P = JSON.parse(document.getElementById('payload').textContent);
function el(tag, attrs, kids){
  var node = document.createElement(tag);
  for (var k in (attrs||{})){
    if (k === 'text') node.textContent = attrs[k];
    else node.setAttribute(k, attrs[k]);
  }
  (kids||[]).forEach(function(c){ node.appendChild(c); });
  return node;
}
function fmt(v){
  if (typeof v !== 'number') return String(v);
  if (Number.isInteger(v)) return String(v);
  return v >= 100 ? v.toFixed(1) : v.toFixed(3);
}
function section(title){
  var s = el('section', {}, [el('h2', {text: title})]);
  document.body.appendChild(s);
  return s;
}
function empty(s, msg){ s.appendChild(el('div', {'class':'empty', text: msg})); }

/* ---- jobs table + latency percentile bars ---- */
(function(){
  var s = section('Jobs (result store)');
  var jobs = P.jobs || [];
  if (!jobs.length){ empty(s, 'no finished jobs in the store'); return; }
  var maxP99 = Math.max.apply(null, jobs.map(function(j){
    return j.summary.p99_packet_latency || 0; }).concat([1]));
  var head = el('tr', {}, ['key','kind','design','workload/rate','seeds',
    'throughput','avg lat','p50 / p95 / p99 (cycles)'].map(function(h, i){
      return el('th', i < 5 ? {'class':'l', text:h} : {text:h}); }));
  var tbl = el('table', {}, [head]);
  jobs.forEach(function(j){
    var lat = el('td', {});
    ['p50','p95','p99'].forEach(function(p){
      var v = j.summary[p + '_packet_latency'];
      if (typeof v !== 'number') return;
      var w = Math.max(2, Math.round(140 * v / maxP99));
      lat.appendChild(el('span', {'class':'bar ' + p,
        'style':'width:' + w + 'px', title: p + '=' + fmt(v)}));
      lat.appendChild(document.createTextNode(' ' + fmt(v) + ' '));
    });
    if (!lat.childNodes.length) lat.textContent = '—';
    tbl.appendChild(el('tr', {}, [
      el('td', {'class':'l mono', text: (j.key||'').slice(0,12)}),
      el('td', {'class':'l', text: j.kind}),
      el('td', {'class':'l', text: String(j.design)}),
      el('td', {'class':'l', text: String(j.target)}),
      el('td', {'class':'l', text: String(j.seeds)}),
      el('td', {text: 'throughput' in j.summary ? fmt(j.summary.throughput) : '—'}),
      el('td', {text: 'avg_packet_latency' in j.summary ?
        fmt(j.summary.avg_packet_latency) : '—'}),
      lat,
    ]));
  });
  s.appendChild(tbl);
})();

/* ---- per-job progress series (sparklines) ---- */
(function(){
  var jobs = (P.jobs || []).filter(function(j){
    return (j.series||[]).length > 1; });
  if (!jobs.length) return;
  var s = section('Job progress series');
  jobs.forEach(function(j){
    var rows = j.series.filter(function(r){
      return typeof r.t === 'number' && typeof r.done === 'number'; });
    if (rows.length < 2) return;
    var W = 320, H = 36, t1 = rows[rows.length-1].t || 1;
    var total = rows[rows.length-1].total || 1;
    var pts = rows.map(function(r){
      var x = (r.t / (t1 || 1)) * (W - 4) + 2;
      var y = H - 2 - (r.done / total) * (H - 8);
      return x.toFixed(1) + ',' + y.toFixed(1);
    }).join(' ');
    var svg = document.createElementNS('http://www.w3.org/2000/svg','svg');
    svg.setAttribute('width', W); svg.setAttribute('height', H);
    var line = document.createElementNS('http://www.w3.org/2000/svg','polyline');
    line.setAttribute('points', pts);
    line.setAttribute('fill','none');
    line.setAttribute('stroke','#4c8dd6');
    line.setAttribute('stroke-width','2');
    svg.appendChild(line);
    var div = el('div', {}, [
      el('span', {'class':'mono', text:(j.key||'').slice(0,12) + ' '}),
      svg,
      el('span', {text:' ' + rows[rows.length-1].done + '/' + total +
        ' seeds over ' + fmt(t1) + 's'}),
    ]);
    s.appendChild(div);
  });
})();

/* ---- service counters / telemetry summary ---- */
(function(){
  if (!P.counters && !P.telemetry_summary) return;
  var s = section('Service counters');
  var box = el('div', {'class':'counters'});
  Object.entries(P.counters || {}).forEach(function(kv){
    box.appendChild(el('span', {}, [
      el('b', {text: String(kv[1])}),
      document.createTextNode(' ' + kv[0]),
    ]));
  });
  s.appendChild(box);
  if (P.telemetry_summary){
    var box2 = el('div', {'class':'counters'});
    box2.appendChild(el('span', {text:'telemetry events: '}));
    Object.entries(P.telemetry_summary).forEach(function(kv){
      box2.appendChild(el('span', {}, [
        el('b', {text: String(kv[1])}),
        document.createTextNode(' ' + kv[0]),
      ]));
    });
    s.appendChild(box2);
  }
})();

/* ---- AFC mode duty-cycle heatmap ---- */
(function(){
  var d = P.duty_cycle;
  if (!d || !d.rows || !d.rows.length) return;
  var s = section('AFC mode duty cycle');
  var numeric = d.columns.filter(function(c){
    return d.rows.some(function(r){ return typeof r[c] === 'number'; }); });
  var head = el('tr', {}, [el('th', {'class':'l', text:'workload'})].concat(
    numeric.map(function(c){ return el('th', {text: c}); })));
  var tbl = el('table', {}, [head]);
  var maxBy = {};
  numeric.forEach(function(c){
    maxBy[c] = Math.max.apply(null, d.rows.map(function(r){
      return typeof r[c] === 'number' ? r[c] : 0; }).concat([1e-9]));
  });
  d.rows.forEach(function(r){
    var tr = el('tr', {}, [el('td', {'class':'l', text: r.workload})]);
    numeric.forEach(function(c){
      var v = r[c];
      var td = el('td', {'class':'cell', text: typeof v === 'number' ? fmt(v) : '—'});
      if (typeof v === 'number'){
        // residency fractions shade absolutely; counts shade per column
        var frac = (c.indexOf('backpressure') === 0 ||
          c === 'backpressured' || c === 'backpressureless')
          ? v : v / maxBy[c];
        frac = Math.max(0, Math.min(1, frac));
        var alpha = (0.08 + 0.72 * frac).toFixed(3);
        td.setAttribute('style', 'background:rgba(76,141,214,' + alpha + ')' +
          (frac > 0.6 ? ';color:#fff' : ''));
      }
      tr.appendChild(td);
    });
    tbl.appendChild(tr);
  });
  s.appendChild(tbl);
})();

/* ---- benchmark trajectory + regression verdict ---- */
(function(){
  if (!P.bench && !P.regression) return;
  var s = section('Benchmarks');
  if (P.regression){
    var bf = P.regression.behaviour_failures || [];
    var pf = P.regression.perf_failures || [];
    var clean = !bf.length && !pf.length;
    s.appendChild(el('p', {}, [
      el('span', {'class': 'badge ' + (clean ? 'ok' : 'fail'),
        text: clean ? 'regression gate: PASS' : 'regression gate: FAIL'}),
      document.createTextNode(clean
        ? '  behaviour exact, throughput above floor ' +
          (P.regression.min_ratio != null ? P.regression.min_ratio : '')
        : '  ' + bf.concat(pf).join(' | ')),
    ]));
    var rows = P.regression.rows || [];
    if (rows.length){
      var tbl = el('table', {}, [el('tr', {}, ['scenario','engine',
        'baseline c/s','fresh c/s','ratio','behaviour'].map(function(h,i){
          return el('th', i < 2 ? {'class':'l', text:h} : {text:h}); }))]);
      rows.forEach(function(r){
        tbl.appendChild(el('tr', {}, [
          el('td', {'class':'l', text: r.scenario}),
          el('td', {'class':'l', text: r.engine}),
          el('td', {text: fmt(r.baseline_cps)}),
          el('td', {text: fmt(r.fresh_cps)}),
          el('td', {text: fmt(r.ratio) + 'x'}),
          el('td', {text: r.behaviour_ok ? 'exact' : 'CHANGED'}),
        ]));
      });
      s.appendChild(tbl);
    }
  }
  var sim = P.bench && P.bench.BENCH_simulator;
  if (sim && sim.measurements){
    var labels = Object.keys(sim.measurements);
    var label = labels.indexOf('current') >= 0 ? 'current' : labels[0];
    var m = sim.measurements[label] || {};
    var tbl2 = el('table', {}, [el('tr', {}, [el('th', {'class':'l',
      text:'scenario (' + label + ')'}), el('th', {text:'engine'}),
      el('th', {text:'cycles/sec'}), el('th', {text:''})])]);
    var max = 1;
    Object.keys(m).forEach(function(sc){
      Object.keys(m[sc]).forEach(function(en){
        max = Math.max(max, m[sc][en].cycles_per_sec || 0); });
    });
    Object.keys(m).sort().forEach(function(sc){
      Object.keys(m[sc]).sort().forEach(function(en){
        var v = m[sc][en].cycles_per_sec;
        if (typeof v !== 'number') return;
        var bar = el('span', {'class':'bar',
          'style':'width:' + Math.max(2, Math.round(180 * v / max)) + 'px'});
        tbl2.appendChild(el('tr', {}, [
          el('td', {'class':'l', text: sc}),
          el('td', {text: en}),
          el('td', {text: fmt(v)}),
          el('td', {'class':'l'}, [bar]),
        ]));
      });
    });
    s.appendChild(tbl2);
  }
  var obs = P.bench && P.bench.BENCH_observability;
  if (obs){
    var line = 'observability overhead: ' +
      fmt(obs.overhead_ratio) + 'x (budget ' + fmt(obs.max_overhead_ratio) + 'x)';
    if (typeof obs.streaming_ratio === 'number')
      line += ', streaming ' + fmt(obs.streaming_ratio) + 'x';
    line += obs.bit_identical_when_observed
      ? ' — bit-identical under observation' : ' — BIT-IDENTITY BROKEN';
    s.appendChild(el('p', {text: line}));
  }
})();
"""


def render_dashboard(
    payload: dict, title: str = "repro dashboard"
) -> str:
    """The payload as one self-contained HTML page.

    The embedded JSON escapes ``</`` so no payload string can close
    the script element early; there are no ``src``/``href`` URLs at
    all, which the CI smoke test asserts."""
    blob = json.dumps(payload, separators=(",", ":")).replace(
        "</", "<\\/"
    )
    jobs = len(payload.get("jobs", []))
    sub = f"{jobs} job(s) in store"
    if payload.get("counters"):
        sub += " · drain counters attached"
    if payload.get("regression"):
        sub += " · regression verdict attached"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        f"<header><h1>{html.escape(title)}</h1>"
        f'<div class="sub">{html.escape(sub)}</div></header>\n'
        f'<script type="application/json" id="payload">{blob}</script>\n'
        f"<script>{_JS}</script>\n</body>\n</html>\n"
    )


def build_dashboard(
    store_path=None,
    bench_dir=None,
    counters: Optional[dict] = None,
    telemetry_summary: Optional[dict] = None,
    regression: Optional[dict] = None,
    title: str = "repro dashboard",
) -> str:
    """Collect + render in one call (what ``repro dash`` invokes)."""
    store = None
    if store_path is not None:
        from ..service.store import ResultStore

        store = ResultStore(store_path)
    payload = collect_payload(
        store=store,
        bench_dir=bench_dir,
        counters=counters,
        telemetry_summary=telemetry_summary,
        regression=regression,
    )
    return render_dashboard(payload, title=title)
