// Package lens is the reproduction of the paper's SocialLens companion
// system (footnote 1 / reference [4]): an interactive service for browsing
// communities by both content and interaction. It is one HTML page plus
// the Fig. 7 diffusion graph (/api/graph), mounted on serve's JSON API
// (serve.APIHandler), which answers every other query — community
// summaries and profiles, profile-driven ranking for free-text queries
// (Eq. 19), stats. The lens owns no model state: the engine holds the live
// snapshot, so a hot-swap (serve.Engine.Reload) propagates to the lens
// without restarting it. Everything is stdlib net/http.
package lens

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/apps"
	"repro/internal/serve"
)

// New returns the lens handler over an engine: the page at "/", the
// diffusion graph at /api/graph, and serve.APIHandler (without reload)
// for every other path. The engine's snapshot may or may not carry a
// vocabulary — without one, labels are numeric and text queries answer
// 501.
func New(engine *serve.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", serve.APIHandler(engine, nil))
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, indexHTML)
	})
	mux.HandleFunc("/api/graph", func(w http.ResponseWriter, r *http.Request) {
		handleGraph(engine, w, r)
	})
	return mux
}

// handleGraph serves the Fig. 7 diffusion graph of one topic (-1: all
// topics) as JSON, or as Graphviz DOT with ?format=dot. serve has no
// equivalent endpoint.
func handleGraph(engine *serve.Engine, w http.ResponseWriter, r *http.Request) {
	// One coherent snapshot for the whole request, pinned so a concurrent
	// hot-swap cannot unmap a mapped model while the graph is built.
	v, release, err := engine.Acquire()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	defer release()
	topic := -1
	if tq := r.URL.Query().Get("topic"); tq != "" {
		t, err := strconv.Atoi(tq)
		if err != nil || t < -1 || t >= v.Model.Cfg.NumTopics {
			http.Error(w, "bad topic", http.StatusBadRequest)
			return
		}
		topic = t
	}
	dg := apps.BuildDiffusionGraph(v.Model, v.Vocab, topic)
	if r.URL.Query().Get("format") == "dot" {
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		if err := dg.WriteDOT(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dg); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// indexHTML is a minimal single-page browser over serve's API: it reads
// /api/communities (sorted by size here) and RankResult.entries from
// /api/rank.
const indexHTML = `<!DOCTYPE html>
<html><head><title>SocialLens — community profiles</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:4px 8px;text-align:left}
input{padding:4px;width:20em}pre{background:#f6f6f6;padding:1em;overflow:auto}
</style></head><body>
<h1>SocialLens</h1>
<p>Browse communities by content and interaction (CPD profiles).</p>
<p><input id="q" placeholder="query, e.g. a campaign keyword"> <button onclick="rank()">rank communities</button></p>
<div id="out"></div>
<script>
async function load(){
  const cs = await (await fetch('/api/communities')).json();
  cs.sort((a,b)=>b.members-a.members);
  render('<h2>Communities</h2>', cs);
}
async function rank(){
  const q = document.getElementById('q').value;
  const r = await fetch('/api/rank?q='+encodeURIComponent(q));
  if(!r.ok){document.getElementById('out').textContent = await r.text();return;}
  render('<h2>Top communities for "'+q+'"</h2>', (await r.json()).entries || []);
}
function render(title, rows){
  if(!rows.length){document.getElementById('out').textContent='no data';return;}
  const cols = Object.keys(rows[0]);
  let h = title+'<table><tr>'+cols.map(c=>'<th>'+c+'</th>').join('')+'</tr>';
  for(const row of rows){h += '<tr>'+cols.map(c=>'<td>'+JSON.stringify(row[c])+'</td>').join('')+'</tr>';}
  document.getElementById('out').innerHTML = h+'</table>';
}
load();
</script></body></html>
`
