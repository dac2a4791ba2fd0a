#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "streambrain/streambrain.hpp"

namespace perfbench::trace {

namespace {

using streambrain::tensor::MatrixF;

constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct Record {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::size_t parent = kNoSpan;
  int run = 0;
  std::uint32_t thread = 0;
};

struct Recorder {
  std::mutex mutex;
  std::vector<Record> spans;  // guarded by mutex
  std::atomic<bool> on{false};
  std::atomic<int> run{0};
  std::atomic<std::uint32_t> next_thread{0};
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - recorder().epoch)
      .count();
}

struct ThreadState {
  std::uint32_t id = recorder().next_thread.fetch_add(1);
  std::vector<std::size_t> open;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

/// Forwards every primitive to the built-in "simd" engine inside a span,
/// so results are bit-identical to an untraced run on "simd".
class TracedEngine final : public streambrain::parallel::Engine {
 public:
  TracedEngine()
      : inner_(streambrain::parallel::EngineRegistry::instance().create(
            "simd")) {}

  [[nodiscard]] std::string name() const override { return kTracedEngine; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    const Span span("core.support");
    inner_->support(x, w, bias, s);
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    const Span span("core.softmax");
    inner_->softmax_hcu(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const Span span("core.traces");
    inner_->update_traces(x, a, alpha, pi, pj, pij);
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const Span span("core.weights");
    inner_->recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
  }

 private:
  std::unique_ptr<streambrain::parallel::Engine> inner_;
};

}  // namespace

void enable() {
  auto& registry = streambrain::parallel::EngineRegistry::instance();
  if (!registry.contains(kTracedEngine)) {
    const streambrain::parallel::EngineInfo simd = registry.info("simd");
    streambrain::parallel::EngineInfo info;
    info.name = kTracedEngine;
    info.description = "simd with per-primitive benchmark spans";
    info.simd_width = simd.simd_width;
    info.dispatch = simd.dispatch;
    registry.register_engine(std::move(info),
                             [] { return std::make_unique<TracedEngine>(); });
  }
  recorder().on.store(true, std::memory_order_release);
}

bool enabled() noexcept {
  return recorder().on.load(std::memory_order_acquire);
}

void set_run(int run) noexcept {
  recorder().run.store(run, std::memory_order_release);
}

Span::Span(const char* name) : index_(kNoSpan) {
  if (!enabled()) return;
  ThreadState& state = thread_state();
  Record record;
  record.name = name;
  record.parent = state.open.empty() ? kNoSpan : state.open.back();
  record.run = recorder().run.load(std::memory_order_acquire);
  record.thread = state.id;
  record.start_us = now_us();
  {
    const std::lock_guard<std::mutex> lock(recorder().mutex);
    index_ = recorder().spans.size();
    recorder().spans.push_back(record);
  }
  state.open.push_back(index_);
}

Span::~Span() {
  if (index_ == kNoSpan) return;
  const double end = now_us();
  thread_state().open.pop_back();
  const std::lock_guard<std::mutex> lock(recorder().mutex);
  recorder().spans[index_].end_us = end;
}

std::map<std::string, Totals> aggregate(int run) {
  const std::lock_guard<std::mutex> lock(recorder().mutex);
  const std::vector<Record>& spans = recorder().spans;
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Record& span : spans) {
    if (span.run == run && span.parent != kNoSpan) {
      child_us[span.parent] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run != run) continue;
    const double duration_us = spans[i].end_us - spans[i].start_us;
    Totals& entry = totals[spans[i].name];
    entry.calls += 1;
    entry.total_s += 1e-6 * duration_us;
    entry.self_s += 1e-6 * (duration_us - child_us[i]);
  }
  return totals;
}

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(recorder().mutex);
  const std::vector<Record>& spans = recorder().spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& span = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_us\": " << span.start_us
        << ", \"end_us\": " << span.end_us << ", \"parent\": "
        << (span.parent == kNoSpan ? -1 : static_cast<long long>(span.parent))
        << ", \"run\": " << span.run << ", \"thread\": " << span.thread
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
