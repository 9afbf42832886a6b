// End-to-end serving-path benchmark: the same rewritten XMark queries
// executed through the legacy materializing path (per-pattern Evaluate +
// explicit sort + pairwise products) and through the unified streaming
// engine (one combined plan through the batched physical executor), swept
// over batch sizes and thread budgets. Prints per-query timings, the
// streaming-vs-legacy speedup, and the EXPLAIN-ANALYZE rendering of the
// most interesting configuration.
//
// Run with --smoke for the CI leg: one iteration over a tiny document.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "exec/memory_tracker.h"
#include "exec/physical.h"
#include "exec/query_control.h"
#include "workload/xmark.h"
#include "xml/serialize.h"

namespace uload {
namespace {

struct QuerySpec {
  const char* name;
  const char* text;
};

const QuerySpec kQueries[] = {
    {"person_names",
     "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>"},
    {"auction_prices",
     "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
     "return <p>{$x/price/text()}</p>"},
    {"item_locations",
     "for $x in doc(\"x\")//item return <l>{$x/location/text()}</l>"},
    // Selection/navigation-heavy: the scan → navigate → select prefix runs
    // over every person but only ~10% survive the predicate, so execution
    // (the fusable chain) dominates and serialization is marginal.
    {"smith_people",
     "for $x in doc(\"x\")//person where $x/name contains \"Smith\" "
     "return <p>{$x/name/text()}</p>"},
    // Selection-heavy over a materialized extent: the price view already
    // carries the text value, so the rewritten plan is a pure
    // scan → rename → select chain with no per-tuple navigation (the
    // predicate fuses INTO the scan loop), and the ~8% selectivity keeps
    // serialization marginal. This is the shape where per-operator
    // dispatch/accounting overhead dominates and fusion pays most (E14's
    // ≥2× fused-vs-classic bar was measured on this query).
    {"pricey_auctions",
     "for $x in doc(\"x\")//closed_auction/price where $x > 290 "
     "return <p>{$x/text()}</p>"},
};

// What the streaming rows time per run: everything after rewriting —
// BuildPlan and, unless `exec` turns verification off, plan verification
// (QueryRewriter::Prepare), then compile and drain (Execute).
Result<std::string> PlanAndExecute(const QueryRewriter& qr,
                                   QueryRewriteResult* r,
                                   const DocumentStore* doc,
                                   ExecContext* exec) {
  ULOAD_RETURN_NOT_OK(qr.Prepare(r, doc, exec));
  return qr.Execute(*r, doc, exec);
}

int Run(double scale, int reps) {
  const bench::Workload& w = bench::SharedXMark(scale);
  const Document& doc = w.doc;
  const PathSummary& summary = w.summary;
  Catalog catalog;
  for (NamedXam& v : TagPartitionedModel(summary)) {
    auto st = catalog.AddXam(v.name, std::move(v.xam), doc);
    if (!st.ok()) {
      std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  QueryRewriter qr(&summary, &catalog);

  bench::Header("query end-to-end: legacy materializing vs streaming engine");
  std::printf("xmark scale %.2f, %d rep(s)\n", scale, reps);
  std::printf("%-16s %-22s %12s %10s\n", "query", "config", "micros",
              "vs legacy");

  const size_t kBatchSizes[] = {1, 64, 1024};
  const size_t kThreadBudgets[] = {1, 4};
  // batch=1 is the deliberate anti-pattern config: every per-batch fixed
  // cost (virtual dispatch, accounting, batch allocation) is paid per tuple.
  // The engine's operating point is the default batch capacity.
  const size_t kDefaultBatch = TupleBatch::kDefaultCapacity;
  for (const QuerySpec& q : kQueries) {
    auto r = qr.Rewrite(q.text);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: rewrite: %s\n", q.name,
                   r.status().ToString().c_str());
      return 1;
    }
    std::string legacy_out;
    double legacy = bench::AvgMicros(reps, [&] {
      auto out = qr.ExecuteMaterialized(*r, &doc);
      if (out.ok()) legacy_out = std::move(*out);
    });
    std::printf("%-16s %-22s %12.1f %10s\n", q.name, "legacy", legacy, "1.00x");

    double default_micros = 0;
    for (size_t threads : kThreadBudgets) {
      for (size_t batch : kBatchSizes) {
        ExecContext exec(batch);
        exec.set_thread_budget(threads);
        std::string streaming_out;
        double micros = bench::AvgMicros(reps, [&] {
          exec.ClearMetrics();
          auto out = PlanAndExecute(qr, &*r, &doc, &exec);
          if (out.ok()) streaming_out = std::move(*out);
        });
        if (streaming_out != legacy_out) {
          std::fprintf(stderr, "%s: streaming result diverges from legacy\n",
                       q.name);
          return 1;
        }
        if (batch == kDefaultBatch && threads == 1) default_micros = micros;
        char config[64];
        std::snprintf(config, sizeof(config), "stream b=%zu t=%zu%s", batch,
                      threads,
                      batch == kDefaultBatch && threads == 1 ? " *" : "");
        std::printf("%-16s %-22s %12.1f %9.2fx\n", q.name, config, micros,
                    micros > 0 ? legacy / micros : 0.0);
      }
    }

    // Governor overhead: the starred configuration with the resource
    // governor fully armed — an active deadline checked at every batch
    // boundary plus per-operator memory accounting against a (generous)
    // budget — versus the ungoverned starred row above. At the default
    // batch size the per-batch checks amortize over ~1k tuples, so the
    // delta must stay below run-to-run noise (EXPERIMENTS.md §PR5).
    {
      ExecContext exec(kDefaultBatch);
      exec.set_thread_budget(1);
      auto control = std::make_shared<QueryControl>();
      // Active-but-distant deadline: the comparison is never cheaper than
      // what a real governed query pays.
      control->set_deadline_ns(QueryControl::NowNs() +
                               int64_t{3600} * 1'000'000'000);
      MemoryTracker mem("bench-query", int64_t{4} << 30);
      exec.set_control(control);
      exec.set_memory_tracker(&mem);
      std::string streaming_out;
      double micros = bench::AvgMicros(reps, [&] {
        exec.ClearMetrics();
        auto out = PlanAndExecute(qr, &*r, &doc, &exec);
        if (out.ok()) streaming_out = std::move(*out);
      });
      if (streaming_out != legacy_out) {
        std::fprintf(stderr, "%s: governed result diverges from legacy\n",
                     q.name);
        return 1;
      }
      if (mem.used() != 0) {
        std::fprintf(stderr, "%s: governor leaked %lld bytes\n", q.name,
                     static_cast<long long>(mem.used()));
        return 1;
      }
      std::printf("%-16s %-22s %12.1f %9.2fx (vs * %+5.1f%%)\n", q.name,
                  "stream governed", micros,
                  micros > 0 ? legacy / micros : 0.0,
                  default_micros > 0
                      ? (micros - default_micros) / default_micros * 100.0
                      : 0.0);
    }

    // Verifier overhead: the default configuration with static plan
    // verification (verify/plan_verifier.h) switched off. Verification
    // runs once per query compile, so the delta against the starred row
    // above is the whole cost of verify-before-execute.
    {
      ExecContext exec(kDefaultBatch);
      exec.set_thread_budget(1);
      exec.set_verify_plans(false);
      std::string streaming_out;
      double micros = bench::AvgMicros(reps, [&] {
        exec.ClearMetrics();
        auto out = PlanAndExecute(qr, &*r, &doc, &exec);
        if (out.ok()) streaming_out = std::move(*out);
      });
      if (streaming_out != legacy_out) {
        std::fprintf(stderr, "%s: unverified result diverges from legacy\n",
                     q.name);
        return 1;
      }
      std::printf("%-16s %-22s %12.1f %9.2fx\n", q.name, "stream no-verify",
                  micros, micros > 0 ? legacy / micros : 0.0);
    }
  }
  std::printf("(* = default engine configuration)\n");

  // Pipeline fusion (E14): execution of the once-compiled physical tree for
  // the same rewritten queries, where maximal non-breaking chains run as one
  // FusedPipeline_φ tuple loop (exec/fusion.h). Parse/rewrite/verify/compile
  // are measured by the sections above. The full end-to-end output is
  // produced once per configuration and checked byte-identical to the
  // legacy materializing path before any timing is reported. batch=1 is
  // where per-batch costs (dispatch, governor checks, batch allocation)
  // show most. The governed rows are the serving-path configuration (active
  // deadline + memory accounting, as the query service arms them).
  bench::Header("pipeline fusion: fused tuple loop execution");
  std::printf("%-16s %-22s %12s\n", "query", "config", "micros");
  struct FusionConfig {
    size_t batch;
    bool governed;
  };
  const FusionConfig kFusionConfigs[] = {
      {1, false}, {1, true}, {kDefaultBatch, false}, {kDefaultBatch, true}};
  for (const QuerySpec& q : kQueries) {
    auto r = qr.Prepare(q.text, &doc);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: rewrite: %s\n", q.name,
                   r.status().ToString().c_str());
      return 1;
    }
    auto legacy_out = qr.ExecuteMaterialized(*r, &doc);
    if (!legacy_out.ok()) {
      std::fprintf(stderr, "%s: legacy: %s\n", q.name,
                   legacy_out.status().ToString().c_str());
      return 1;
    }
    for (const FusionConfig& fc : kFusionConfigs) {
      const size_t batch = fc.batch;
      ExecContext exec(batch);
      exec.set_thread_budget(1);
      std::shared_ptr<QueryControl> control;
      MemoryTracker mem("bench-fusion", int64_t{4} << 30);
      if (fc.governed) {
        control = std::make_shared<QueryControl>();
        control->set_deadline_ns(QueryControl::NowNs() +
                                 int64_t{3600} * 1'000'000'000);
        exec.set_control(control);
        exec.set_memory_tracker(&mem);
      }
      // End-to-end differential (untimed) against the legacy path.
      auto out = qr.Execute(*r, &doc, &exec);
      if (!out.ok() || *out != *legacy_out) {
        std::fprintf(stderr, "%s: fused result diverges from legacy\n",
                     q.name);
        return 1;
      }
      // Timed region: execution of the once-compiled physical tree.
      exec.ClearMetrics();
      auto root = CompilePhysicalPlan(r->plan,
                                      catalog.MakeEvalContext(&doc), &exec);
      if (!root.ok()) {
        std::fprintf(stderr, "%s: compile: %s\n", q.name,
                     root.status().ToString().c_str());
        return 1;
      }
      // Warm-up run (first execution touches cold pages), then average
      // over 3× the section reps: execution-only timings are small enough
      // that scheduler noise would otherwise dominate.
      (void)ExecutePhysical(root->get());
      double micros = bench::AvgMicros(reps * 3, [&] {
        auto rel = ExecutePhysical(root->get());
        if (!rel.ok()) std::fprintf(stderr, "%s: exec failed\n", q.name);
      });
      char config[64];
      std::snprintf(config, sizeof(config), "fused b=%zu%s", batch,
                    fc.governed ? " gov" : "");
      std::printf("%-16s %-22s %12.1f\n", q.name, config, micros);
    }
  }

  // Backend comparison (E12): the same queries, the same storage model, the
  // same executor — only Options::backend differs. Over the columnar store
  // the simple tag collections run as virtual extents (ColumnarScan_φ /
  // ColumnarParallelScan_φ streaming rows off the column arrays); over the
  // pointer backend they are materialized relations. Results are checked
  // byte-identical before any timing is reported.
  bench::Header("backend comparison: pointer tree vs columnar store");
  std::printf("%-16s %-22s %12s %12s\n", "query", "config", "micros",
              "vs pointer");
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  Catalog columnar_catalog;
  for (NamedXam& v : TagPartitionedModel(summary)) {
    auto st = columnar_catalog.AddXam(v.name, std::move(v.xam), col);
    if (!st.ok()) {
      std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  QueryRewriter qr_col(&summary, &columnar_catalog);
  for (const QuerySpec& q : kQueries) {
    // Prepare once per backend outside the timed region: the comparison is
    // scan/execution throughput, not rewriting.
    auto r_ptr = qr.Prepare(q.text, &doc);
    auto r_col = qr_col.Prepare(q.text, &col);
    if (!r_ptr.ok() || !r_col.ok()) {
      std::fprintf(stderr, "%s: rewrite failed\n", q.name);
      return 1;
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecContext pexec(kDefaultBatch);
      pexec.set_thread_budget(threads);
      ExecContext cexec(kDefaultBatch);
      cexec.set_thread_budget(threads);
      std::string pointer_out;
      std::string columnar_out;
      double pointer_us = bench::AvgMicros(reps, [&] {
        pexec.ClearMetrics();
        auto out = qr.Execute(*r_ptr, &doc, &pexec);
        if (out.ok()) pointer_out = std::move(*out);
      });
      double columnar_us = bench::AvgMicros(reps, [&] {
        cexec.ClearMetrics();
        auto out = qr_col.Execute(*r_col, &col, &cexec);
        if (out.ok()) columnar_out = std::move(*out);
      });
      // Byte-equality only: a query may legitimately match nothing at smoke
      // scale (the highly selective smith_people), so emptiness is not an
      // error — the tier-1 differential tests enforce non-trivial results.
      if (pointer_out != columnar_out) {
        std::fprintf(stderr, "%s: columnar result diverges from pointer\n",
                     q.name);
        return 1;
      }
      char config[64];
      std::snprintf(config, sizeof(config), "pointer  t=%zu", threads);
      std::printf("%-16s %-22s %12.1f %12s\n", q.name, config, pointer_us,
                  "1.00x");
      std::snprintf(config, sizeof(config), "columnar t=%zu", threads);
      std::printf("%-16s %-22s %12.1f %11.2fx\n", q.name, config, columnar_us,
                  columnar_us > 0 ? pointer_us / columnar_us : 0.0);
    }
  }

  // Raw scan throughput (E12): a bare Scan over large tag views, compiled
  // through the physical executor for both backends. The pointer backend
  // streams copies out of the materialized NestedRelation (Scan_phi /
  // ParallelScan_phi); the columnar backend builds the same tuples on the
  // fly from the column arrays (ColumnarScan_phi / ColumnarParallelScan_phi
  // over the virtual extent) — at thread budget 4 the compiler fans both
  // out over an Exchange. tag_name/tag_location are leaf-tag views (values
  // dictionary-backed → stays virtual); tag_item has element children, so
  // on the columnar backend it falls back to one-time materialization and
  // the two legs converge.
  bench::Header("scan throughput: materialized view vs virtual extent");
  std::printf("%-16s %-22s %12s %12s %14s\n", "view", "config", "micros",
              "vs pointer", "tuples/ms");
  for (const char* view_name : {"tag_name", "tag_location", "tag_item"}) {
    double pointer_base = 0;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      struct Leg {
        const char* label;
        const Catalog* cat;
        const DocumentStore* store;
      } legs[] = {{"pointer", &catalog, &doc},
                  {"columnar", &columnar_catalog, &col}};
      for (const Leg& leg : legs) {
        EvalContext ctx = leg.cat->MakeEvalContext(leg.store);
        ExecContext exec(kDefaultBatch);
        exec.set_thread_budget(threads);
        PlanPtr plan = LogicalPlan::Scan(view_name);
        int64_t tuples = 0;
        bool failed = false;
        double micros = bench::AvgMicros(reps, [&] {
          exec.ClearMetrics();
          tuples = 0;
          auto root = CompilePhysicalPlan(plan, ctx, &exec);
          if (!root.ok() || !(*root)->Open().ok()) {
            failed = true;
            return;
          }
          for (;;) {
            auto b = (*root)->NextBatch();
            if (!b.ok() || !b->has_value()) break;
            tuples += static_cast<int64_t>((*b)->size());
          }
          (*root)->Close();
        });
        if (failed || tuples == 0) {
          std::fprintf(stderr, "%s: scan failed\n", view_name);
          return 1;
        }
        if (threads == 1 && leg.cat == &catalog) pointer_base = micros;
        char config[64];
        std::snprintf(config, sizeof(config), "%-8s t=%zu", leg.label,
                      threads);
        std::printf("%-16s %-22s %12.1f %11.2fx %14.0f\n", view_name, config,
                    micros, micros > 0 ? pointer_base / micros : 0.0,
                    micros > 0 ? tuples / (micros / 1000.0) : 0.0);
      }
    }
  }

  // Cold-start comparison (E12): restoring a Save()d engine (mmap + header
  // validation + summary deserialize) against re-ingesting the document
  // from XML text (parse + summary build).
  {
    bench::Header("cold start: persisted columnar load vs XML re-parse");
    std::string xml = SerializeSubtree(doc, doc.root());
    const std::string path = "/tmp/bench_query_e2e.uldcol";
    Engine::Options co;
    co.backend = Engine::Options::Backend::kColumnar;
    Engine saver(Document(doc), co);
    if (auto st = saver.Save(path); !st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return 1;
    }
    int64_t sink = 0;
    double parse_us = bench::AvgMicros(reps, [&] {
      auto d = Document::Parse(xml);
      if (d.ok()) {
        Document parsed = std::move(*d);
        PathSummary s = PathSummary::Build(&parsed);
        sink += s.size();
      }
    });
    double load_us = bench::AvgMicros(reps, [&] {
      auto e = Engine::Load(path);
      if (e.ok()) sink += (*e)->store().size();
    });
    if (sink == 0) {
      std::fprintf(stderr, "cold start: parse or load failed\n");
      return 1;
    }
    std::printf("%-28s %12.1f us\n", "re-parse + summary build", parse_us);
    std::printf("%-28s %12.1f us  (%.1fx faster, %zu-byte XML)\n",
                "Engine::Load (mmap)", load_us,
                load_us > 0 ? parse_us / load_us : 0.0, xml.size());
    std::remove(path.c_str());
  }

  // EXPLAIN ANALYZE of the serving path for the first query.
  Engine::Options o;
  o.thread_budget = 1;
  Engine engine(Document(doc), o);
  auto st = engine.InstallModel(TagPartitionedModel(engine.summary()));
  if (!st.ok()) {
    std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
    return 1;
  }
  auto ex = engine.ExplainAnalyze(kQueries[0].text);
  if (!ex.ok()) {
    std::fprintf(stderr, "explain analyze: %s\n",
                 ex.status().ToString().c_str());
    return 1;
  }
  bench::Header("explain analyze (streaming serving path)");
  std::printf("%s", ex->physical.c_str());
  return 0;
}

}  // namespace
}  // namespace uload

int main(int argc, char** argv) {
  bool smoke = false;
  double scale = 0;
  int reps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atof(argv[++i]);
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
  }
  // Default scale yields thousands of matching tuples per query so the
  // measurement reflects execution, not per-query fixed overhead.
  if (scale <= 0) scale = smoke ? 0.02 : 20.0;
  if (reps <= 0) reps = smoke ? 1 : 5;
  return uload::Run(scale, reps);
}
