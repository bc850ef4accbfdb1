package traffic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"alex/internal/core"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// opFuncs maps each kind (except outage_toggle, which the harness owns)
// to its implementation. Every op derives all randomness from the rng it
// receives, built from the op's scheduled seed, so its result is a pure
// function of (world state, seed) — the property the shadow oracle checks.
var opFuncs = map[string]func(ctx context.Context, w *world, rng *rand.Rand) (string, error){
	OpSelectEntity: opSelectEntity,
	OpAskEntity:    opAskEntity,
	OpFedJoin:      opFedJoin,
	OpFedAsk:       opFedAsk,
	OpFeedback:     opFeedback,
	OpBulkLoad:     opBulkLoad,
	OpRepeatQuery:  opRepeatQuery,
	OpMutateReread: opMutateReread,
	OpCrashRestart: opCrashRestart,
	OpLiveUpsert:   opLiveUpsert,
	OpFeedbackHTTP: opFeedbackHTTP,
}

// opSelectEntity fetches one DS1 entity's attributes over the SPARQL
// protocol endpoint.
func opSelectEntity(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	subj := w.subjects1[rng.Intn(len(w.subjects1))]
	q := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", w.term(subj))
	w.httpOps.Add(1)
	res, err := w.client.Query(ctx, q)
	if err != nil {
		return fmt.Sprintf("subj=%d", subj), fmt.Errorf("select_entity: %w", err)
	}
	return fmt.Sprintf("subj=%d rows=%d digest=%016x", subj, len(res.Rows), digestBindings(res.Rows)), nil
}

// opAskEntity probes entity existence over the endpoint; half the draws
// use a DS2 subject, which DS1 does not store, so both answers occur.
// Every op must hit the wire for the served-request reconciliation, and
// this one does: Query caches nothing.
func opAskEntity(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	subjects := w.subjects1
	if rng.Intn(2) == 1 {
		subjects = w.subjects2
	}
	subj := subjects[rng.Intn(len(subjects))]
	q := fmt.Sprintf("ASK { %s ?p ?o }", w.term(subj))
	w.httpOps.Add(1)
	res, err := w.client.Query(ctx, q)
	if err != nil {
		return fmt.Sprintf("subj=%d", subj), fmt.Errorf("ask_entity: %w", err)
	}
	return fmt.Sprintf("subj=%d ans=%t", subj, res.Boolean), nil
}

// opFedJoin runs an unbound-predicate entity description against the
// federation: DS1 answers directly, and the sameAs rewriter pulls in DS2
// attributes for every candidate link of the subject, so the result
// evolves with the engine's link set.
func opFedJoin(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	subj := w.subjects1[rng.Intn(len(w.subjects1))]
	q := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", w.term(subj))
	res, err := w.node.Fed.ExecuteContext(ctx, q)
	if err != nil {
		return fmt.Sprintf("subj=%d", subj), fmt.Errorf("fed_join: %w", err)
	}
	links := 0
	for _, a := range res.Answers {
		links += len(a.Used)
	}
	return fmt.Sprintf("subj=%d rows=%d links=%d%s digest=%016x",
		subj, len(res.Answers), links, skippedSuffix(res), digestAnswers(res.Answers)), nil
}

// opFedAsk runs a bound-predicate federated ASK, exercising the
// predicate-presence source-selection probes; subjects mix DS1 and DS2
// sides so member routing varies.
func opFedAsk(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	subjects := w.subjects1
	if rng.Intn(2) == 1 {
		subjects = w.subjects2
	}
	subj := subjects[rng.Intn(len(subjects))]
	pred := w.preds1[rng.Intn(len(w.preds1))]
	q := fmt.Sprintf("ASK { %s %s ?o }", w.term(subj), w.term(pred))
	res, err := w.node.Fed.ExecuteContext(ctx, q)
	if err != nil {
		return fmt.Sprintf("subj=%d", subj), fmt.Errorf("fed_ask: %w", err)
	}
	return fmt.Sprintf("subj=%d pred=%d ans=%t%s", subj, pred, res.AskResult(), skippedSuffix(res)), nil
}

// judgeSample samples 8 to 31 candidate links (all of them when there are
// fewer), judges each against the ground truth (a pure judge: verdicts
// never depend on call order) and enters the verdicts in the invariant
// ledger. It returns the judgements in candidate order, none when there
// are no candidates, and how many of them approve.
func (w *world) judgeSample(rng *rand.Rand) (items []core.Feedback, pos int) {
	cands := w.node.Engine.Candidates().Links()
	if len(cands) == 0 {
		return nil, 0
	}
	k := min(8+rng.Intn(24), len(cands))
	idx := rng.Perm(len(cands))[:k]
	sort.Ints(idx)
	items = make([]core.Feedback, 0, k)
	for _, i := range idx {
		l := cands[i]
		approved := w.truth.Contains(l)
		if approved {
			pos++
		}
		items = append(items, core.Feedback{Link: l, Approved: approved})
		w.recordJudgement(l, approved)
	}
	return items, pos
}

// opFeedback judges a sample of candidate links (judgeSample) and drives
// one engine episode with the verdicts; the federation's link set is
// refreshed afterwards.
func opFeedback(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("feedback: %w", err)
	}
	items, pos := w.judgeSample(rng)
	k := len(items)
	if k == 0 {
		return "items=0 noop", nil
	}
	st := w.node.Apply(items)
	w.episodes++
	w.episodeCounter.Inc()
	return fmt.Sprintf("items=%d pos=%d neg=%d added=%d removed=%d changed=%d candidates=%d",
		k, pos, k-pos, st.Added, st.Removed, st.Changed, st.Candidates), nil
}

// opBulkLoad streams a fresh batch of N-Triples into the aux store — the
// federation's third member — growing it monotonically over the run.
func opBulkLoad(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("bulk_load: %w", err)
	}
	entities := 16 + rng.Intn(16)
	var b strings.Builder
	for i := 0; i < entities; i++ {
		id := w.auxSeq
		w.auxSeq++
		fmt.Fprintf(&b, "<http://alexsim.invalid/aux/e%d> <http://alexsim.invalid/aux/name> \"aux entity %d\" .\n", id, id)
		fmt.Fprintf(&b, "<http://alexsim.invalid/aux/e%d> <http://alexsim.invalid/aux/batch> \"%d\" .\n", id, id%7)
	}
	n, err := store.LoadNTriples(w.aux, strings.NewReader(b.String()), store.LoadOptions{Obs: w.cfg.Obs})
	if err != nil {
		return fmt.Sprintf("entities=%d", entities), fmt.Errorf("bulk_load: %w", err)
	}
	return fmt.Sprintf("entities=%d triples=%d total=%d", entities, n, w.aux.Len()), nil
}

// opRepeatQuery re-issues one of the fixed hot queries over the endpoint.
// The pool is small by design: under Config.Cache most executions are
// result-cache hits, and the digest in the log proves a hit serves exactly
// the answer a cold evaluation would (the log is byte-identical with
// caching off).
func opRepeatQuery(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	qi := rng.Intn(len(w.hotQueries))
	w.httpOps.Add(1)
	res, err := w.client.Query(ctx, w.hotQueries[qi])
	if err != nil {
		return fmt.Sprintf("q=%d", qi), fmt.Errorf("repeat_query: %w", err)
	}
	return fmt.Sprintf("q=%d rows=%d digest=%016x", qi, len(res.Rows), digestBindings(res.Rows)), nil
}

// opMutateReread writes fresh triples into DS1 — the endpoint's own store,
// bumping its generation — and immediately reads them back over HTTP. The
// read-back must see the write (seen=true): a result cache that failed to
// invalidate on the generation bump would serve the stale pre-write answer,
// which the harness flags as a cache_coherence violation. The op is a
// serial barrier, so the subject cursor and every later read are
// deterministic.
func opMutateReread(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("mutate_reread: %w", err)
	}
	id := w.ds1Seq
	w.ds1Seq++
	subj := fmt.Sprintf("<http://alexsim.invalid/ds1/e%d>", id)
	// Warm the cache entry for this subject before the write, so under
	// Config.Cache the read-back below genuinely exercises invalidation
	// rather than a cold miss.
	warmQ := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", subj)
	w.httpOps.Add(1)
	warm, err := w.client.Query(ctx, warmQ)
	if err != nil {
		return fmt.Sprintf("id=%d", id), fmt.Errorf("mutate_reread: %w", err)
	}
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		w.ds1.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://alexsim.invalid/ds1/e%d", id)),
			P: rdf.NewIRI(fmt.Sprintf("http://alexsim.invalid/ds1/p%d", i)),
			O: rdf.NewString(fmt.Sprintf("v%d-%d", id, i)),
		})
	}
	w.httpOps.Add(1)
	res, err := w.client.Query(ctx, warmQ)
	if err != nil {
		return fmt.Sprintf("id=%d", id), fmt.Errorf("mutate_reread: %w", err)
	}
	return fmt.Sprintf("id=%d pre=%d wrote=%d rows=%d seen=%t",
		id, len(warm.Rows), n, len(res.Rows), len(res.Rows) == n), nil
}

// opCrashRestart is the in-run crash-recovery probe. It snapshots the live
// DS1 image as the reference, kills the durability layer the way kill -9
// would (fd closed, nothing flushed, no checkpoint), recovers the data
// directory into a throwaway store with a brand-new dict — exactly what a
// restarted process does — and compares: the recovered store must produce
// the identical canonical snapshot bytes and generation (snap_equal), and
// must answer sampled SPARQL reads with the same digests as the live store
// (reads_equal). Either being false is a durability_equiv violation at
// flush time. Durability is then re-attached (fresh checkpoint, new WAL
// epoch) so the run continues durable. The op is a serial barrier, so the
// WAL replay count and snapshot size in the detail are deterministic.
func opCrashRestart(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("crash_restart: %w", err)
	}
	if w.durable == nil {
		return "noop durable=off", nil
	}
	var ref bytes.Buffer
	if err := w.ds1.WriteSnapshot(&ref); err != nil {
		return "", fmt.Errorf("crash_restart: reference snapshot: %w", err)
	}
	refGen := w.ds1.Generation()
	w.durable.Kill()
	w.durable = nil
	re, err := store.OpenDurable(w.ds1.Name(), rdf.NewDict(), store.DurableOptions{
		Dir: w.cfg.DataDir, Fsync: w.fsync,
	})
	if err != nil {
		return "", fmt.Errorf("crash_restart: recover: %w", err)
	}
	rec := re.RecoveryStats()
	var got bytes.Buffer
	snapErr := re.Store().WriteSnapshot(&got)
	snapEqual := snapErr == nil &&
		bytes.Equal(ref.Bytes(), got.Bytes()) &&
		re.Store().Generation() == refGen
	readsEqual := true
	for i := 0; i < 3; i++ {
		subj := w.subjects1[rng.Intn(len(w.subjects1))]
		q := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", w.term(subj))
		live, lerr := sparql.Execute(w.ds1, q)
		rcvd, rerr := sparql.Execute(re.Store(), q)
		if (lerr == nil) != (rerr == nil) ||
			(lerr == nil && digestBindings(live.Rows) != digestBindings(rcvd.Rows)) {
			readsEqual = false
		}
	}
	re.Kill()
	d, err := store.AttachDurable(w.ds1, store.DurableOptions{
		Dir: w.cfg.DataDir, Fsync: w.fsync, Obs: w.cfg.Obs,
	})
	if err != nil {
		return "", fmt.Errorf("crash_restart: re-attach: %w", err)
	}
	w.durable = d
	return fmt.Sprintf("replayed=%d snap_triples=%d torn=%d snap_equal=%t reads_equal=%t",
		rec.WALRecords, rec.SnapshotTriples, rec.TornBytes, snapEqual, readsEqual), nil
}

// opLiveUpsert grows DS1 with a brand-new subject mid-run, occasionally
// also extending a DS2 entity, and folds both into the engine's feature
// spaces through the incremental delta path: one SyncStores reads the new
// subject and the DS2 edit from the stores' logs. The new subject's
// name copies a sampled DS2 literal, so the newcomer genuinely scores
// against the right side. A serial barrier; the cursor, the partition
// routing and the space sizes in the detail are deterministic at any
// worker count. The sampled pools never grow, so read ops stay on the
// original entities.
func opLiveUpsert(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("live_upsert: %w", err)
	}
	id := w.liveSeq
	w.liveSeq++
	r := w.subjects2[rng.Intn(len(w.subjects2))]
	name := fmt.Sprintf("live entity %d", id)
	for _, t := range w.ds2.Match(r, rdf.NoTerm, rdf.NoTerm) {
		if o := w.dict.Term(t.O); o.Kind == rdf.KindLiteral {
			name = o.Value
			break
		}
	}
	subjIRI := rdf.NewIRI(fmt.Sprintf("http://alexsim.invalid/live/e%d", id))
	w.ds1.Add(rdf.Triple{S: subjIRI, P: rdf.NewIRI("http://alexsim.invalid/live/name"), O: rdf.NewString(name)})
	touched := 0
	if rng.Intn(3) == 0 {
		w.ds2.Add(rdf.Triple{
			S: w.dict.Term(r),
			P: rdf.NewIRI("http://alexsim.invalid/live/tag"),
			O: rdf.NewString(fmt.Sprintf("live tag %d", id)),
		})
		touched = 1
	}
	st := w.node.Engine.SyncStores()
	subj, _ := w.dict.Lookup(subjIRI)
	part, routed := w.node.Engine.PartitionOf(subj)
	if !routed {
		return fmt.Sprintf("id=%d", id), fmt.Errorf("live_upsert: new subject %d not routed", subj)
	}
	pairs := 0
	for i := 0; i < w.node.Engine.Partitions(); i++ {
		total, _ := w.node.Engine.SpaceStats(i)
		pairs += total
	}
	return fmt.Sprintf("id=%d part=%d new_subj=%d new_obj=%d ds2_touched=%d pairs=%d",
		id, part, st.NewSubjects, st.NewObjects, touched, pairs), nil
}

// opFeedbackHTTP judges a sample of candidate links as opFeedback does
// (judgeSample) and submits the verdicts over the wire: POST /feedback
// with flush, so the whole streaming path — JSON, IRI resolution, stream
// batching, episode apply, federation link refresh — runs before the
// response. A serial barrier, and the response fields it logs are pure
// functions of world state and seed.
func opFeedbackHTTP(ctx context.Context, w *world, rng *rand.Rand) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("feedback_http: %w", err)
	}
	items, pos := w.judgeSample(rng)
	k := len(items)
	if k == 0 {
		return "items=0 noop", nil
	}
	req := endpoint.FeedbackRequest{Flush: true, Items: make([]endpoint.FeedbackItem, k)}
	for i, it := range items {
		req.Items[i] = endpoint.FeedbackItem{
			Left:     w.dict.Term(it.Link.Left).Value,
			Right:    w.dict.Term(it.Link.Right).Value,
			Approved: it.Approved,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Sprintf("items=%d", k), fmt.Errorf("feedback_http: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.feedbackURL, bytes.NewReader(body))
	if err != nil {
		return fmt.Sprintf("items=%d", k), fmt.Errorf("feedback_http: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	w.httpOps.Add(1)
	resp, err := w.httpc.Do(httpReq)
	if err != nil {
		return fmt.Sprintf("items=%d", k), fmt.Errorf("feedback_http: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Sprintf("items=%d", k), fmt.Errorf("feedback_http: status %d", resp.StatusCode)
	}
	var fr endpoint.FeedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return fmt.Sprintf("items=%d", k), fmt.Errorf("feedback_http: %w", err)
	}
	// Each applied batch is one feedback episode, as in opFeedback.
	w.episodes += fr.Batches
	w.episodeCounter.Add(int64(fr.Batches))
	return fmt.Sprintf("items=%d pos=%d neg=%d accepted=%d batches=%d candidates=%d",
		k, pos, k-pos, fr.Accepted, fr.Batches, fr.Candidates), nil
}

// skippedSuffix renders a partial result's skipped member names (sorted;
// skip *reasons* are excluded — breaker-open vs retry-exhausted depends on
// batch interleaving, the skipped set does not).
func skippedSuffix(res *fed.Result) string {
	if len(res.Skipped) == 0 {
		return ""
	}
	names := make([]string, 0, len(res.Skipped))
	for _, s := range res.Skipped {
		names = append(names, s.Source)
	}
	sort.Strings(names)
	return " partial=" + strings.Join(names, ",")
}

// digestBindings hashes a row set order-independently: each row renders to
// a canonical string, the rendered rows are sorted, and the result is
// FNV-1a hashed. Two result sets digest equally iff they contain the same
// multiset of rows.
func digestBindings(rows []sparql.Binding) uint64 {
	rendered := make([]string, len(rows))
	for i, r := range rows {
		rendered[i] = renderBinding(r)
	}
	sort.Strings(rendered)
	h := fnv.New64a()
	for _, s := range rendered {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func digestAnswers(answers []fed.Answer) uint64 {
	rows := make([]sparql.Binding, len(answers))
	for i, a := range answers {
		rows[i] = a.Binding
	}
	return digestBindings(rows)
}

func renderBinding(b sparql.Binding) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v)
		sb.WriteByte('=')
		sb.WriteString(renderTerm(b[v]))
		sb.WriteByte(' ')
	}
	return sb.String()
}

func renderTerm(t rdf.Term) string {
	return fmt.Sprintf("%d|%s|%s|%s", t.Kind, t.Value, t.Lang, t.Datatype)
}
