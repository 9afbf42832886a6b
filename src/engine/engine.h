// The engine facade (thesis Fig. 5.1 as a serving stack): one object owning
// the document, its path summary, the catalog of materialized XAMs, and the
// execution context, behind a three-call surface —
//   Run(query)             rewrite + streaming physical execution → XML
//   Explain(query)         combined logical plan + physical operator tree
//   ExplainAnalyze(query)  Run, returning the plan annotated with the
//                          per-operator runtime counters it just produced
// All three share one path: govern, prepare (rewrite + combined plan +
// verification), check the governor, compile, and — Run/ExplainAnalyze —
// drain. The drain is fully streaming: tuples feed the tagging template
// batch by batch, with no intermediate materialized relation.
//
// Resource governance (DESIGN.md §8): every call executes on a private
// ExecContext with a fresh QueryControl (deadline = call entry + timeout)
// and a per-query MemoryTracker parented to the engine-wide tracker, so
// queries can run concurrently on one engine, each governed independently.
// Cancel() trips every in-flight query; each aborts at its next check —
// after rewriting or at a batch boundary — with kCancelled, workers joined
// and queues drained.
#ifndef ULOAD_ENGINE_ENGINE_H_
#define ULOAD_ENGINE_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "rewrite/query_rewriter.h"
#include "storage/columnar/columnar_document.h"
#include "storage/storage_models.h"

namespace uload {

class Engine {
 public:
  struct Options {
    // Physical document representation behind the storage-neutral
    // DocumentStore interface. kPointer keeps the parsed node tree;
    // kColumnar converts it into the dictionary-encoded column store
    // (storage/columnar/) — qualifying views then run as virtual extents
    // and the engine becomes persistable via Save()/Load(). Query results
    // are byte-identical across backends.
    enum class Backend { kPointer, kColumnar };
    Backend backend = Backend::kPointer;
    // Fill target of every TupleBatch on the serving path.
    size_t batch_size = TupleBatch::kDefaultCapacity;
    // Worker threads the physical compiler may spend on Exchange operators;
    // 1 keeps execution strictly serial (and bit-deterministic).
    size_t thread_budget = 1;
    // Statically verify every plan before execution (verify/plan_verifier.h):
    // logical schema/type checking, template binding checks, and physical
    // order/placement soundness. A malformed plan surfaces as a Status
    // instead of undefined behavior mid-execution.
    bool verify = true;
    // Engine-wide budget shared by all concurrent queries (0 = unlimited);
    // the per-query trackers parent to it. Per-query budgets and deadlines
    // are QueryOptions.
    int64_t engine_memory_limit_bytes = 0;
    // Fault injection for robustness testing (disabled by default); see
    // FaultSpec in exec/exec_context.h.
    FaultSpec fault;
    // Ignored: fused pipelines are the only compilation (exec/fusion.h).
    // Kept only because xambench/traced.cc reads it, and xambench/ changes
    // only together with the benchmark.
    bool fuse = true;
    RewriteOptions rewrite;
  };

  // The per-query governor of one Run/Explain/ExplainAnalyze call. The
  // serving layer (src/server/) assigns these at admission time — deadline
  // and memory budget per admitted query — without touching the engine-wide
  // Options (SetOptions requires no queries in flight; QueryOptions is the
  // concurrency-safe per-query path).
  struct QueryOptions {
    // Wall-clock budget in ms from call entry, so it covers rewriting too;
    // 0 = unlimited, negative = already expired (testing: the first check
    // trips, deterministically). Ignored when `control` arrives with an
    // earlier deadline.
    int64_t timeout_ms = 0;
    // Per-query memory budget in bytes (0 = unlimited): the bytes held by
    // the query's materializing operators and in-flight exchange slots. An
    // exceeded budget aborts that query with kResourceExhausted; concurrent
    // queries under their own budgets are unaffected.
    int64_t memory_limit_bytes = 0;
    // Worker threads for this query; 0 = the engine option's budget.
    size_t thread_budget = 0;
    // Batch fill target for this query; 0 = the engine option's size.
    size_t batch_size = 0;
    // Externally owned cancellation handle (e.g. an admission ticket's, or
    // a test's observing checks() / arming CancelAfterChecks()). May arrive
    // with a deadline preset; the effective deadline is the earlier of that
    // and now + timeout_ms. Null = fresh handle.
    std::shared_ptr<QueryControl> control;
  };

  explicit Engine(Document doc);
  Engine(Document doc, Options options);

  // Restores an engine from a file written by Save(): the column store is
  // mmapped and validated — no XML re-parse, no summary rebuild. The loaded
  // engine always runs the columnar backend (`options.backend` is ignored);
  // install a storage model before querying, as with a fresh engine.
  static Result<std::unique_ptr<Engine>> Load(const std::string& path);
  static Result<std::unique_ptr<Engine>> Load(const std::string& path,
                                              Options options);

  // Persists the document as a columnar image (columns + dictionaries +
  // chunk index + path summary, versioned and checksummed) to `path`. Works
  // from either backend; the pointer backend converts on the fly.
  Status Save(const std::string& path) const;

  // Replaces the engine options; they are read per query at BeginQuery, so
  // changed options apply to the next query. Call with no queries in
  // flight.
  void SetOptions(Options options);
  const Options& options() const { return options_; }

  // Replaces the installed storage model: materializes every XAM of `model`
  // over the document into a fresh catalog.
  Status InstallModel(std::vector<NamedXam> model);
  // Adds one more view to the installed model.
  Status AddView(std::string name, Xam definition);

  // Rewrites `query` over the installed views and streams the combined plan
  // through the physical executor into serialized XML. Thread-safe against
  // concurrent Run/ExplainAnalyze/Explain/Cancel/Save on the same engine
  // (full matrix in DESIGN.md §10); InstallModel/AddView/SetOptions still
  // require no queries in flight.
  // Every entry point takes the call's governor as QueryOptions.
  [[nodiscard]] Result<std::string> Run(const std::string& query);
  [[nodiscard]] Result<std::string> Run(const std::string& query,
                                        const QueryOptions& q);

  // Cancels every in-flight Run/Explain/ExplainAnalyze: each aborts at its
  // next check with kCancelled (clean Status, workers joined, queues
  // drained, budget trackers back to zero). Queries started after this call
  // are unaffected. Thread-safe.
  void Cancel() EXCLUDES(mu_);

  struct Explanation {
    std::string logical;   // combined logical plan rendering
    std::string physical;  // physical tree; ExplainAnalyze annotates it
                           // with the runtime counters
    std::string result;    // serialized XML (ExplainAnalyze only)
  };
  // Compiles without executing.
  Result<Explanation> Explain(const std::string& query);
  Result<Explanation> Explain(const std::string& query, const QueryOptions& q);
  // Executes, then renders the physical tree with per-operator counters.
  Result<Explanation> ExplainAnalyze(const std::string& query);
  Result<Explanation> ExplainAnalyze(const std::string& query,
                                     const QueryOptions& q);

  // The active document store — what every view and query runs against.
  const DocumentStore& store() const { return *store_; }
  // Non-null when the columnar backend is active.
  const ColumnarDocument* columnar_store() const {
    return store_ == &columnar_ ? &columnar_ : nullptr;
  }
  // The pointer-tree document. Empty for engines restored via Load(), which
  // carry only the columnar image — use store() for storage-neutral access.
  const Document& document() const { return doc_; }
  const PathSummary& summary() const { return summary_; }
  const Catalog& catalog() const { return catalog_; }
  // Per-operator runtime counters of the most recent completed
  // Run/ExplainAnalyze, as a snapshot taken under the engine lock — safe to
  // call while queries are in flight (each query's counters live on its
  // private ExecContext until EndQuery publishes them here; readers never
  // share slots with a running query).
  std::deque<OperatorMetrics> LastQueryMetrics() const EXCLUDES(mu_);
  // Sum of tuples_produced over the last published counters.
  int64_t LastQueryTotalTuples() const EXCLUDES(mu_);
  // Engine-wide memory tracker (root of the per-query hierarchy). used()
  // returns to zero when no query is in flight — aborted ones included.
  const MemoryTracker& memory() const { return engine_memory_; }

 private:
  // Load() path: adopt a restored column store + deserialized summary.
  Engine(ColumnarDocument store, PathSummary summary, Options options);

  // Rebuilds rewriter_ over the current catalog and indexes its views.
  void IndexCatalog();

  // What one call of the served path produces (Explanation's fields).
  enum class Mode { kRun, kExplain, kAnalyze };
  // The one served path: BeginQuery, ServeOn, EndQuery.
  Result<Explanation> Serve(const std::string& query, const QueryOptions& q,
                            Mode mode);
  // Prepare, one governor check, compile, and — unless explaining — drain,
  // all on the governed `exec`.
  Result<Explanation> ServeOn(const std::string& query, Mode mode,
                              ExecContext* exec) const;
  // Installs the per-query state on `exec` (control with deadline, tracker,
  // fault spec, batch size, thread budget, verify) and registers the
  // control as in-flight. Returns the control for EndQuery.
  std::shared_ptr<QueryControl> BeginQuery(ExecContext* exec,
                                           MemoryTracker* query_mem,
                                           const QueryOptions& q)
      EXCLUDES(mu_);
  // Deregisters the control and, when `executed` is non-null, publishes its
  // counters as the engine's "most recent" metrics.
  void EndQuery(const std::shared_ptr<QueryControl>& control,
                const ExecContext* executed) EXCLUDES(mu_);

  Document doc_;
  ColumnarDocument columnar_;
  // Points at doc_ or columnar_ per the active backend; set once in the
  // constructor, never reseated.
  const DocumentStore* store_ = nullptr;
  PathSummary summary_;
  Catalog catalog_;
  // The catalog's views indexed for rewriting, shared read-only by
  // concurrent queries; rebuilt whenever the catalog changes (InstallModel,
  // AddView — both require no queries in flight).
  std::unique_ptr<QueryRewriter> rewriter_;
  Options options_;
  MemoryTracker engine_memory_{"engine"};
  // Guards the in-flight control set and the published metrics snapshot;
  // the capability annotations make the "which lock protects what" contract
  // machine-checked under clang (DESIGN.md §12). Lock ordering: mu_ is a
  // leaf — nothing is acquired while it is held.
  mutable Mutex mu_;
  std::vector<std::shared_ptr<QueryControl>> inflight_ GUARDED_BY(mu_);
  // Published counters of the most recently finished query. A plain value
  // snapshot (not a shared ExecContext): concurrent Runs each collect on a
  // private context and copy here under mu_, so no running operator tree
  // ever shares metric slots with a reader or another query.
  std::deque<OperatorMetrics> last_metrics_ GUARDED_BY(mu_);
};

}  // namespace uload

#endif  // ULOAD_ENGINE_ENGINE_H_
