// Microbenchmarks for the simulation substrate: event engine
// throughput, packet-train computation, routing queries, RNG.
#include <benchmark/benchmark.h>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/train.hpp"
#include "util/rng.hpp"

using namespace peerscope;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(util::SimTime::nanos(static_cast<std::int64_t>(
                             (i * 2654435761u) % 1'000'000'000)),
                         [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_EngineCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Engine::Handle> handles;
    handles.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      handles.push_back(
          engine.schedule_at(util::SimTime::micros(i + 1), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      engine.cancel(handles[i]);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
}
BENCHMARK(BM_EngineCancelHeavy);

void BM_TransmitTrain(benchmark::State& state) {
  const net::AccessLink sender = net::AccessLink::lan100();
  const net::AccessLink receiver = net::AccessLink::lan100();
  const net::PathInfo path{18, util::SimTime::millis(40)};
  sim::LinkCursor up, down;
  util::Rng rng{1};
  sim::TrainSpec spec;
  spec.packet_count = static_cast<int>(state.range(0));
  spec.packet_bytes = 1250;
  std::int64_t t = 0;
  sim::TrainResult result;
  for (auto _ : state) {
    spec.start = util::SimTime::nanos(t += 1'000'000);
    sim::transmit_train(spec, sender, up, receiver, down, path, rng, result);
    benchmark::DoNotOptimize(result.arrivals.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TransmitTrain)->Arg(13)->Arg(64);

void BM_TopologyPath(benchmark::State& state) {
  const net::AsTopology topo = net::make_reference_topology();
  using namespace net::refas;
  const net::Endpoint eu{net::Ipv4Addr{20, 0, 0, 5}, kAs2, net::kItaly,
                         net::Region::kEurope, 2};
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Endpoint cn{
        net::Ipv4Addr{30, 0, 0, static_cast<std::uint8_t>(1 + (i++ % 250))},
        kCnIspFirst, net::kChina, net::Region::kAsia, 4};
    benchmark::DoNotOptimize(topo.path(eu, cn).hops);
  }
}
BENCHMARK(BM_TopologyPath);

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(15'000));
  }
}
BENCHMARK(BM_RngBelow);

void BM_RngWeightedPick(benchmark::State& state) {
  util::Rng rng{3};
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.1 + static_cast<double>(i % 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.weighted_pick(weights));
  }
}
BENCHMARK(BM_RngWeightedPick)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
