"""The dashboard's single-page app, embedded as string constants.

No framework, no build step, no package-data files: the HTML and the
vanilla-JS app ship inside the wheel as plain Python strings and are
served verbatim by :mod:`repro.obs.web.server`.  Everything dynamic
comes from the JSON API; this file is pure presentation.
"""

from __future__ import annotations

__all__ = ["INDEX_HTML", "APP_JS"]

INDEX_HTML = """\
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro control plane</title>
<style>
  :root {
    --bg: #11151c; --panel: #1a212c; --ink: #d8dee9; --dim: #7b8694;
    --accent: #63b3ed; --ok: #68d391; --warn: #f6ad55; --bad: #fc8181;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--ink);
         font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace; }
  header { display: flex; align-items: baseline; gap: 1em;
           padding: 10px 16px; border-bottom: 1px solid #2a3443;
           flex-wrap: wrap; }
  header h1 { font-size: 16px; margin: 0; color: var(--accent); }
  header .tag { color: var(--dim); }
  header #conn { margin-left: auto; }
  main { display: grid; gap: 12px; padding: 12px 16px;
         grid-template-columns: repeat(auto-fit, minmax(420px, 1fr)); }
  section { background: var(--panel); border: 1px solid #2a3443;
            border-radius: 6px; padding: 10px 12px; min-width: 0; }
  section h2 { margin: 0 0 8px; font-size: 13px; color: var(--accent);
               text-transform: uppercase; letter-spacing: 0.08em; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 2px 8px 2px 0; white-space: nowrap; }
  th { color: var(--dim); font-weight: normal; }
  canvas.spark { width: 100%; height: 64px; display: block; }
  .wide { grid-column: 1 / -1; }
  .ok { color: var(--ok); } .warn { color: var(--warn); }
  .bad { color: var(--bad); } .dim { color: var(--dim); }
  #flame { position: relative; overflow: hidden; min-height: 40px; }
  #flame div { position: absolute; height: 17px; overflow: hidden;
               font-size: 11px; line-height: 17px; padding: 0 3px;
               border: 1px solid var(--bg); border-radius: 2px;
               cursor: pointer; color: #11151c; }
  #trace { position: relative; overflow: hidden; min-height: 40px; }
  #trace div { position: absolute; height: 13px; overflow: hidden;
               font-size: 10px; line-height: 13px; border-radius: 2px;
               color: #11151c; padding: 0 2px; }
  .lane-label { color: var(--dim); font-size: 11px; }
  button { background: #2a3443; color: var(--ink); border: 1px solid
           #3b4757; border-radius: 4px; padding: 3px 10px;
           font: inherit; cursor: pointer; margin: 2px 4px 2px 0; }
  button:hover { border-color: var(--accent); }
  input, select { background: #11151c; color: var(--ink); border:
           1px solid #3b4757; border-radius: 4px; padding: 2px 6px;
           font: inherit; width: 7em; }
  #audit { max-height: 180px; overflow-y: auto; }
  #metricsBody { max-height: 260px; overflow-y: auto; display: block; }
  pre { margin: 4px 0; white-space: pre-wrap; }
</style>
</head>
<body>
<header>
  <h1>repro control plane</h1>
  <span class="tag" id="build">&mdash;</span>
  <span class="tag" id="uptime"></span>
  <span class="tag" id="mode"></span>
  <span id="conn" class="dim">connecting&hellip;</span>
</header>
<main>
  <section>
    <h2>Throughput <span class="dim" id="thru-now"></span></h2>
    <canvas id="spark-thru" class="spark"></canvas>
    <h2>Queue depth <span class="dim" id="depth-now"></span></h2>
    <canvas id="spark-depth" class="spark"></canvas>
  </section>
  <section>
    <h2>Requests</h2>
    <table id="totals"></table>
    <h2>Latency stages (p95)</h2>
    <table id="stagesTbl"></table>
  </section>
  <section>
    <h2>Workers &amp; breakers</h2>
    <table id="workers"></table>
  </section>
  <section>
    <h2>Operations</h2>
    <div>
      shard <input id="op-shard" type="number" value="0" min="0">
      token <input id="op-token" type="password" placeholder="(none)">
    </div>
    <div>
      <button data-action="drain">drain shard</button>
      <button data-action="chaos">trigger chaos</button>
      <button data-action="flush-plan-cache">flush plan cache</button>
      <button data-action="toggle-injector">toggle injector</button>
    </div>
    <h2>Audit log</h2>
    <div id="audit" class="dim">&mdash;</div>
  </section>
  <section class="wide">
    <h2>Flamegraph
      <select id="flame-net"></select>
      <button id="flame-load">profile</button>
      <span class="dim" id="flame-meta"></span>
    </h2>
    <div id="flame"></div>
  </section>
  <section class="wide">
    <h2>Trace
      <button id="trace-load">refresh</button>
      <a id="trace-dl" href="/api/trace?download=1" download
         style="color: var(--accent)">download chrome trace</a>
      <span class="dim" id="trace-meta"></span>
    </h2>
    <div id="trace"></div>
  </section>
  <section class="wide">
    <h2>Metrics <span class="dim">(/api/metrics.json)</span></h2>
    <table><tbody id="metricsBody"></tbody></table>
  </section>
  <section class="wide">
    <h2>Bench history</h2>
    <table id="bench"></table>
  </section>
</main>
<script src="app.js"></script>
</body>
</html>
"""

APP_JS = """\
'use strict';
/* repro dashboard app: everything below talks to the JSON API served
   by repro.obs.web.server.  SSE first, long-poll fallback. */

const $ = (id) => document.getElementById(id);
const samples = [];          // rolling window of "sample" events
const MAX_SAMPLES = 240;
let lastSeq = 0;

function fmt(x, digits) {
  if (x === null || x === undefined) return '-';
  if (typeof x !== 'number') return String(x);
  if (Number.isInteger(x)) return String(x);
  return x.toFixed(digits === undefined ? 3 : digits);
}
function fmtSecs(s) {
  if (s === null || s === undefined) return '-';
  if (s < 1e-3) return (s * 1e6).toFixed(0) + 'us';
  if (s < 1) return (s * 1e3).toFixed(1) + 'ms';
  return s.toFixed(1) + 's';
}

/* ---- event ingestion (SSE with long-poll fallback) ---------------- */
function onEvent(ev) {
  if (ev.seq <= lastSeq) return;           // monotonic by contract
  lastSeq = ev.seq;
  if (ev.kind === 'sample') {
    samples.push(ev);
    if (samples.length > MAX_SAMPLES) samples.shift();
    renderSamples();
  } else if (ev.kind === 'action') {
    loadAudit();
  }
}
function connectSSE() {
  const es = new EventSource('/api/stream?since=' + lastSeq);
  es.onmessage = (m) => onEvent(JSON.parse(m.data));
  es.onopen = () => { $('conn').textContent = 'live (sse)';
                      $('conn').className = 'ok'; };
  es.onerror = () => { es.close(); $('conn').textContent = 'poll';
                       $('conn').className = 'warn'; longPoll(); };
}
async function longPoll() {
  for (;;) {
    try {
      const r = await fetch('/api/updates?since=' + lastSeq
                            + '&timeout_s=10');
      const body = await r.json();
      body.events.forEach(onEvent);
      $('conn').textContent = 'live (poll)'; $('conn').className = 'ok';
    } catch (e) {
      $('conn').textContent = 'disconnected'; $('conn').className = 'bad';
      await new Promise((res) => setTimeout(res, 2000));
    }
  }
}

/* ---- live charts -------------------------------------------------- */
function spark(canvas, series, color) {
  const ctx = canvas.getContext('2d');
  const w = canvas.width = canvas.clientWidth;
  const h = canvas.height = canvas.clientHeight;
  ctx.clearRect(0, 0, w, h);
  if (series.length < 2) return;
  const max = Math.max(1e-9, ...series);
  ctx.strokeStyle = color; ctx.lineWidth = 1.5; ctx.beginPath();
  series.forEach((v, i) => {
    const x = (i / (series.length - 1)) * (w - 2) + 1;
    const y = h - 2 - (v / max) * (h - 6);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.stroke();
  ctx.fillStyle = '#7b8694'; ctx.font = '10px monospace';
  ctx.fillText(fmt(max, 1), 4, 10);
}
function renderSamples() {
  const thru = [], depth = [];
  for (let i = 1; i < samples.length; i++) {
    const a = samples[i - 1].data, b = samples[i].data;
    const dt = Math.max(1e-6, samples[i].t - samples[i - 1].t);
    thru.push(Math.max(0, ((b.completed || 0) - (a.completed || 0)) / dt));
    depth.push(b.queue_depth || 0);
  }
  spark($('spark-thru'), thru, '#63b3ed');
  spark($('spark-depth'), depth, '#f6ad55');
  const last = samples[samples.length - 1];
  if (last) {
    $('thru-now').textContent = fmt(thru[thru.length - 1], 1) + ' req/s';
    $('depth-now').textContent = fmt(last.data.queue_depth) + ' queued';
    $('uptime').textContent = 'up ' + fmt(last.data.uptime_s, 0) + 's';
    renderTotals(last.data);
  }
}
function renderTotals(d) {
  const rows = [['submitted', d.submitted], ['completed', d.completed],
                ['failed', d.failed], ['rejected', d.rejected],
                ['breakers open', d.breakers_open],
                ['p50', fmtSecs(d.p50_s)], ['p95', fmtSecs(d.p95_s)],
                ['p99', fmtSecs(d.p99_s)]];
  $('totals').innerHTML = rows.map(
    ([k, v]) => `<tr><th>${k}</th><td>${fmt(v)}</td></tr>`).join('');
}

/* ---- status: header, workers, stages ------------------------------ */
async function loadStatus() {
  const s = await (await fetch('/api/status')).json();
  const b = s.build;
  $('build').textContent =
    `v${b.version || '?'} engine=${b.engine || '?'}`;
  $('mode').textContent = 'mode=' + s.mode;
  const sel = $('flame-net');
  if (sel.options.length === 0) {
    (s.networks || []).forEach((n) => {
      const o = document.createElement('option');
      o.value = o.textContent = n; sel.appendChild(o);
    });
  }
  const rows = [];
  if (s.cluster) {
    rows.push('<tr><th>worker</th><th>shard</th><th>state</th>' +
              '<th>phi</th><th>outstanding</th></tr>');
    s.cluster.replicas.forEach((r) => {
      const st = !r.alive ? '<span class="bad">dead</span>'
        : r.suspect ? '<span class="warn">suspect</span>'
        : r.accepting ? '<span class="ok">up</span>'
        : '<span class="dim">draining</span>';
      rows.push(`<tr><td>${r.name}</td><td>${r.shard}</td><td>${st}` +
                `</td><td>${fmt(r.phi, 2)}</td>` +
                `<td>${fmt(r.outstanding)}</td></tr>`);
    });
  }
  if (s.engine) {
    rows.push('<tr><th>network</th><th>breaker</th><th>queue</th></tr>');
    Object.entries(s.engine.breakers || {}).forEach(([net, st]) => {
      const cls = st === 'closed' ? 'ok' : 'bad';
      rows.push(`<tr><td>${net}</td><td class="${cls}">${st}</td>` +
                `<td>${fmt((s.engine.queue_depths || {})[net])}</td></tr>`);
    });
    const inj = s.engine.injector;
    rows.push(`<tr><th>plan cache</th><td colspan=2>` +
              `${s.engine.plan_cache_entries} entries</td></tr>`);
    rows.push(`<tr><th>injector</th><td colspan=2>` +
              `${inj.present ? (inj.enabled ? 'enabled' : 'disabled')
                             : 'none'}</td></tr>`);
  }
  $('workers').innerHTML = rows.join('');
  renderStages(s.stages || {});
}
function renderStages(st) {
  const rows = [['queue_wait', st.queue_wait], ['batch_assembly',
                 st.batch_assembly], ['execute', st.execute]];
  $('stagesTbl').innerHTML = rows.map(([k, v]) =>
    `<tr><th>${k}</th><td>${v ? fmtSecs(v.p95_s) : '-'}</td>` +
    `<td class="dim">n=${v ? v.count : 0}</td></tr>`).join('');
}

/* ---- metrics table ------------------------------------------------ */
async function loadMetrics() {
  const m = await (await fetch('/api/metrics.json')).json();
  const rows = [];
  Object.entries(m.metrics).forEach(([name, fam]) => {
    fam.samples.forEach((s) => {
      const labels = Object.entries(s.labels)
        .map(([k, v]) => `${k}="${v}"`).join(',');
      rows.push(`<tr><td>${name}${s.suffix || ''}` +
                `${labels ? '{' + labels + '}' : ''}</td>` +
                `<td>${fmt(s.value)}</td></tr>`);
    });
  });
  $('metricsBody').innerHTML = rows.join('');
}

/* ---- flamegraph --------------------------------------------------- */
const FLAME_COLORS = ['#fc8181', '#f6ad55', '#f6e05e', '#68d391',
                      '#63b3ed', '#b794f4'];
function renderFlame(tree, total) {
  const box = $('flame');
  box.innerHTML = '';
  let maxDepth = 0;
  const place = (node, depth, x0, scale) => {
    maxDepth = Math.max(maxDepth, depth);
    const w = node.cycles / total * scale;
    const div = document.createElement('div');
    div.style.left = (x0 * 100) + '%';
    div.style.width = Math.max(0.15, w * 100) + '%';
    div.style.top = (depth * 18) + 'px';
    div.style.background = FLAME_COLORS[depth % FLAME_COLORS.length];
    div.textContent = node.name;
    div.title = `${node.name}: ${node.cycles} cycles ` +
                `(${(node.cycles / total * 100).toFixed(1)}%)`;
    div.onclick = () => renderFlame(node, node.cycles);
    box.appendChild(div);
    let x = x0;
    (node.children || []).forEach((c) => {
      place(c, depth + 1, x, scale);
      x += c.cycles / total * scale;
    });
  };
  place(tree, 0, 0, 1);
  box.style.height = ((maxDepth + 1) * 18 + 4) + 'px';
}
async function loadFlame() {
  $('flame-meta').textContent = 'profiling…';
  const net = $('flame-net').value;
  const r = await fetch('/api/flamegraph?network=' +
                        encodeURIComponent(net));
  if (!r.ok) { $('flame-meta').textContent = 'error ' + r.status; return; }
  const p = await r.json();
  $('flame-meta').textContent = `${p.total_cycles} cycles, ` +
    `${p.total_instrs} instrs, level ${p.meta.level}`;
  renderFlame(p.tree, p.tree.cycles || 1);
}

/* ---- trace timeline ----------------------------------------------- */
async function loadTrace() {
  const r = await fetch('/api/trace');
  if (!r.ok) { $('trace-meta').textContent = 'no tracer attached';
               return; }
  const t = await r.json();
  const events = (t.traceEvents || []).filter((e) => e.ph === 'X');
  const box = $('trace');
  box.innerHTML = '';
  if (!events.length) { $('trace-meta').textContent = 'no spans yet';
                        return; }
  const t0 = Math.min(...events.map((e) => e.ts));
  const t1 = Math.max(...events.map((e) => e.ts + (e.dur || 0)));
  const span = Math.max(1, t1 - t0);
  const lanes = [...new Set(events.map((e) => e.tid))].sort();
  const shown = events.slice(-500);
  shown.forEach((e) => {
    const div = document.createElement('div');
    div.style.left = ((e.ts - t0) / span * 100) + '%';
    div.style.width = Math.max(0.1, (e.dur || 0) / span * 100) + '%';
    div.style.top = (lanes.indexOf(e.tid) * 15 + 2) + 'px';
    div.style.background =
      FLAME_COLORS[Math.abs(e.name.length) % FLAME_COLORS.length];
    div.title = `${e.name} (${e.dur || 0}us)`;
    div.textContent = e.name;
    box.appendChild(div);
  });
  box.style.height = (lanes.length * 15 + 6) + 'px';
  $('trace-meta').textContent = `${events.length} spans, ` +
    `${((t1 - t0) / 1000).toFixed(1)}ms window, ${lanes.length} lanes`;
}

/* ---- bench history ------------------------------------------------ */
async function loadBench() {
  const b = await (await fetch('/api/bench')).json();
  const rows = ['<tr><th>file</th><th>highlights</th></tr>'];
  Object.entries(b.benches).forEach(([name, data]) => {
    const hl = [];
    const walk = (obj, path) => {
      if (hl.length >= 6 || typeof obj !== 'object' || !obj) return;
      Object.entries(obj).forEach(([k, v]) => {
        if (typeof v === 'number' &&
            /(rps|ratio|pct|availability|speedup)/.test(k) &&
            hl.length < 6) hl.push(`${path}${k}=${fmt(v, 2)}`);
        else if (typeof v === 'object') walk(v, path + k + '.');
      });
    };
    walk(data, '');
    rows.push(`<tr><td>${name}</td><td class="dim">` +
              `${hl.join('  ') || '(see file)'}</td></tr>`);
  });
  $('bench').innerHTML = rows.join('');
}

/* ---- operator actions + audit ------------------------------------- */
async function runAction(action) {
  const headers = { 'Content-Type': 'application/json' };
  const token = $('op-token').value;
  if (token) headers['Authorization'] = 'Bearer ' + token;
  const body = { shard: parseInt($('op-shard').value || '0', 10) };
  const r = await fetch('/api/actions/' + action, {
    method: 'POST', headers, body: JSON.stringify(body) });
  await r.json().catch(() => null);
  loadAudit(); loadStatus();
}
async function loadAudit() {
  const a = await (await fetch('/api/audit')).json();
  $('audit').innerHTML = a.entries.slice(-30).reverse().map((e) => {
    const cls = e.ok ? 'ok' : 'bad';
    return `<pre><span class="${cls}">${e.ok ? 'ok ' : 'ERR'}</span> ` +
           `${e.action} ${JSON.stringify(e.params)} ` +
           `${JSON.stringify(e.detail)}</pre>`;
  }).join('') || '&mdash;';
}

/* ---- wire-up ------------------------------------------------------ */
document.querySelectorAll('button[data-action]').forEach((b) => {
  b.onclick = () => runAction(b.dataset.action);
});
$('flame-load').onclick = loadFlame;
$('trace-load').onclick = loadTrace;
loadStatus(); loadMetrics(); loadBench(); loadAudit();
setInterval(loadStatus, 3000);
setInterval(loadMetrics, 5000);
connectSSE();
"""
