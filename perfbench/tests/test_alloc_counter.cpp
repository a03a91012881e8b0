// The allocation counter must see exactly the allocations a timed call
// makes: N planted allocations inside a traced Scope add exactly N to
// that span's self allocations (and to the raw counter), nothing is
// charged to its parent, and repeating a deterministic library call
// repeats its count exactly.
#include <cstdio>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "driver.hpp"
#include "spans.hpp"
#include "topology/system_builder.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, long long got, long long want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got, want);
}

/// Planted allocations: N new-expressions whose results stay alive.
void Plant(int n, std::vector<std::unique_ptr<int>>& keep) {
  for (int i = 0; i < n; ++i) keep[static_cast<std::size_t>(i)].reset(new int(i));
}

}  // namespace

int main() {
  using perfbench::Layer;
  for (int n : {0, 1, 7, 1000}) {
    std::vector<std::unique_ptr<int>> keep(static_cast<std::size_t>(n));
    perfbench::Recorder rec;
    // A first traced pass sizes the span log, as the benchmark's warm-up
    // pass does; BeginPass keeps its capacity.
    for (int warm = 0; warm < 2; ++warm) {
      rec.BeginPass(true);
      perfbench::Scope pass(rec, Layer::kPass);
      perfbench::Scope call(rec, Layer::kLaunch);
    }
    rec.BeginPass(true);
    const perfbench::AllocCount before = perfbench::AllocsNow();
    {
      perfbench::Scope pass(rec, Layer::kPass);
      perfbench::Scope call(rec, Layer::kLaunch);
      Plant(n, keep);
    }
    const perfbench::AllocCount after = perfbench::AllocsNow();
    const perfbench::PassSummary sum = perfbench::Summarize(rec.spans(), 1);
    const auto self = static_cast<long long>(sum.Of(Layer::kLaunch).self_allocs);
    Expect(self == n, "timed call self allocs", self, n);
    const auto parent = static_cast<long long>(sum.Of(Layer::kPass).self_allocs);
    Expect(parent == 0, "parent self allocs", parent, 0);
    const auto raw = static_cast<long long>(after.calls - before.calls);
    Expect(raw == n, "raw counter", raw, n);
    const auto bytes = static_cast<long long>(after.bytes - before.bytes);
    Expect(bytes >= static_cast<long long>(n * sizeof(int)), "bytes", bytes,
           static_cast<long long>(n * sizeof(int)));
  }

  // A deterministic library call allocates the same count every time.
  long long first = -1;
  for (int rep = 0; rep < 3; ++rep) {
    irmc::SystemBuilder::Global().Clear();  // every rep builds cold
    perfbench::Recorder rec;
    rec.BeginPass(false);
    perfbench::SinglePointSpec spec;
    spec.cfg.seed = 31337;
    spec.topologies = 2;
    spec.samples_per_topology = 2;
    const perfbench::AllocCount a0 = perfbench::AllocsNow();
    perfbench::RunSinglePoint(spec, rec);
    const auto n =
        static_cast<long long>(perfbench::AllocsNow().calls - a0.calls);
    if (first < 0) first = n;
    Expect(n == first && n > 0, "repeat allocation count", n, first);
  }

  if (failures == 0) std::printf("alloc_counter: ok\n");
  return failures == 0 ? 0 : 1;
}
