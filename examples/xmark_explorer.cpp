// XMark schema exploration: generates the XMark auction database, builds
// summaries at several sizes, shows group membership, an expanded view
// (paper Figure 2(C)), a two-level summary, and how a user's query
// discovery cost drops with the summary.
//
//   ./xmark_explorer [scale-factor]     (default 0.1)

#include <cstdio>
#include <cstdlib>

#include "core/multilevel.h"
#include "core/summarize.h"
#include "datasets/xmark.h"
#include "query/discovery.h"
#include "stats/annotate.h"

using namespace ssum;

int main(int argc, char** argv) {
  XMarkParams params;
  params.sf = argc > 1 ? std::atof(argv[1]) : 0.1;
  XMarkDataset ds(params);
  const SchemaGraph& schema = ds.schema();
  std::printf("XMark schema: %zu elements (sf=%.2f)\n", schema.size(),
              params.sf);

  auto stream = ds.MakeStream();
  auto ann = AnnotateSchema(*stream);
  if (!ann.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n",
                 ann.status().ToString().c_str());
    return 1;
  }
  CountingVisitor counter;
  (void)stream->Accept(&counter);
  std::printf("database: %llu data nodes, %llu reference instances\n\n",
              static_cast<unsigned long long>(counter.nodes()),
              static_cast<unsigned long long>(counter.references()));

  auto context = SummarizerContext::Make(schema, *ann).ValueOrDie();

  // Summaries of growing size (paper Figure 2(A) is the size-~5 view).
  for (size_t k : {5, 10}) {
    auto summary = Summarize(context, k);
    if (!summary.ok()) {
      std::fprintf(stderr, "summarize failed: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf("=== size-%zu summary ===\n", k);
    for (ElementId s : summary->abstract_elements) {
      std::printf("  %-28s (group of %zu, importance %.0f)\n",
                  schema.PathOf(s).c_str(), summary->Group(s).size(),
                  context.importance().importance[s]);
    }
    if (k == 5) {
      // Expanded view of the most important abstract element (Figure 2(C)).
      ElementId top = summary->abstract_elements.front();
      auto view = ExpandAbstractElement(*summary, top);
      if (view.ok()) {
        std::printf("  expanding '%s' exposes %zu original elements:\n",
                    schema.label(top).c_str(),
                    view->expanded_members.size());
        size_t shown = 0;
        for (ElementId e : view->expanded_members) {
          std::printf("    %s\n", schema.PathOf(e).c_str());
          if (++shown == 8) {
            std::printf("    ... (%zu more)\n",
                        view->expanded_members.size() - shown);
            break;
          }
        }
      }
    }
    std::printf("\n");
  }

  // Two-level summary: 12 fine groups, 4 coarse groups.
  auto levels = SummarizeMultiLevel(schema, *ann, {12, 4});
  if (levels.ok()) {
    std::printf("=== multi-level summary (12 -> 4) ===\n");
    const SummaryLevel& coarse = (*levels)[1];
    for (ElementId top : coarse.abstract_elements) {
      std::printf("  top-level '%s' covers fine groups:",
                  schema.label(top).c_str());
      for (ElementId fine : (*levels)[0].abstract_elements) {
        if (coarse.representative[fine] == top) {
          std::printf(" %s", schema.label(fine).c_str());
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  } else {
    std::printf("multi-level failed: %s\n\n",
                levels.status().ToString().c_str());
  }

  // Query discovery with and without the summary.
  Workload workload = *ds.Queries();
  DiscoveryOracle oracle(schema);
  auto summary = Summarize(context, 10);
  std::printf("=== query discovery (20 XMark queries) ===\n");
  std::printf("  depth-first   : %.2f\n",
              AverageDiscoveryCost(oracle, workload,
                                   TraversalStrategy::kDepthFirst));
  std::printf("  breadth-first : %.2f\n",
              AverageDiscoveryCost(oracle, workload,
                                   TraversalStrategy::kBreadthFirst));
  std::printf("  best-first    : %.2f\n",
              AverageDiscoveryCost(oracle, workload,
                                   TraversalStrategy::kBestFirst));
  std::printf("  with summary  : %.2f\n",
              AverageDiscoveryCostWithSummary(oracle, *summary, workload));
  return 0;
}
