// ParallelScanPipeline unit tests for the decoupled streaming shape
// (DESIGN.md §14), at the pipeline level so conflicts can be forced exactly:
// the merge callback mutates the frame of a later, not-yet-consumed item, and
// the speculative hash for that item must be detected as stale and dropped —
// with the observable hash sequence bit-identical to the serial reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/host/parallel_scan.h"
#include "src/host/thread_pool.h"
#include "src/phys/physical_memory.h"

namespace vusion::host {
namespace {

constexpr std::size_t kFrames = 64;

// Items preset to frames [0, kFrames) (the WPF shape: no PTE resolution).
std::vector<ScanItem> MakeItems() {
  std::vector<ScanItem> items(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    items[i].index = i;
    items[i].frame = static_cast<FrameId>(i);
  }
  return items;
}

struct PipelineRun {
  // What an engine body observes: the content hash of each item's frame at its
  // canonical merge slot. Must be bit-identical across every pipeline shape.
  std::vector<std::uint64_t> hashes;
  ScanTiming timing;
};

// Runs the pipeline over fresh pattern-filled memory. When `conflict` is set,
// merging item 0 rewrites the LAST item's frame — hashed speculatively long
// before its merge slot under small chunks — so the stream must detect the
// stale snapshot and recompute.
PipelineRun RunPipeline(ThreadPool* pool, std::size_t chunk_pages,
                        bool conflict) {
  PhysicalMemory memory(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    memory.FillPattern(static_cast<FrameId>(f), 0x9000 + f);
  }
  ParallelScanPipeline pipeline(memory, pool);
  pipeline.ConfigureStreaming(chunk_pages);
  std::vector<ScanItem> items = MakeItems();
  PipelineRun run;
  const auto merge_one = [&](ScanItem& item) {
    if (conflict && item.index == 0) {
      memory.WriteU64(items.back().frame, 64, 0xfeedface);
    }
    run.hashes.push_back(memory.HashContent(item.frame));
  };
  pipeline.Run(items, run.timing, nullptr, merge_one);
  return run;
}

TEST(ParallelScanPipelineTest, ForcedConflictDetectedAndResultsBitIdentical) {
  // Serial reference: no pool, barrier shape, nothing speculative.
  const PipelineRun reference =
      RunPipeline(nullptr, 0, /*conflict=*/true);
  ASSERT_EQ(reference.hashes.size(), kFrames);

  ThreadPool pool(4);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{16}}) {
    const PipelineRun streamed = RunPipeline(&pool, chunk, true);
    EXPECT_EQ(streamed.hashes, reference.hashes) << "chunk=" << chunk;
    EXPECT_EQ(streamed.timing.streamed_batches, 1u) << "chunk=" << chunk;
    // The mutated frame's speculative snapshot is stale no matter when the
    // worker hashed it: taken before the merge write, its live generation
    // moved on (PrimeHash refuses); taken after, its generation no longer
    // matches the recorded pre-merge generation (the determinism fence).
    EXPECT_GE(streamed.timing.speculative_stale, 1u) << "chunk=" << chunk;
    EXPECT_EQ(streamed.timing.speculative_hashes, static_cast<std::uint64_t>(kFrames))
        << "chunk=" << chunk;
  }
}

TEST(ParallelScanPipelineTest, QuietStreamHasNoStaleSnapshots) {
  ThreadPool pool(4);
  const PipelineRun reference = RunPipeline(nullptr, 0, /*conflict=*/false);
  const PipelineRun streamed = RunPipeline(&pool, 4, /*conflict=*/false);
  EXPECT_EQ(streamed.hashes, reference.hashes);
  EXPECT_EQ(streamed.timing.speculative_stale, 0u);
  EXPECT_EQ(streamed.timing.speculative_hashes, static_cast<std::uint64_t>(kFrames));
}

TEST(ParallelScanPipelineTest, BetweenPhasesHookForcesBarrierShape) {
  // The kHashed phase boundary only exists in the barrier shape, so arming a
  // between-phases hook must suppress streaming even with a pool installed.
  ThreadPool pool(4);
  PhysicalMemory memory(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    memory.FillPattern(static_cast<FrameId>(f), 0x9000 + f);
  }
  ParallelScanPipeline pipeline(memory, &pool);
  pipeline.ConfigureStreaming(1);
  std::vector<ScanItem> items = MakeItems();
  ScanTiming timing;
  int boundary_calls = 0;
  std::size_t merged = 0;
  pipeline.Run(
      items, timing, nullptr, [&](ScanItem&) { ++merged; },
      [&] { ++boundary_calls; });
  EXPECT_EQ(boundary_calls, 1);
  EXPECT_EQ(merged, kFrames);
  EXPECT_EQ(timing.streamed_batches, 0u);
}

TEST(ParallelScanPipelineTest, SingleThreadPoolStreamsViaConsumerHelp) {
  // scan_threads=1 still streams when an external (fleet) pool is installed;
  // with no free workers the consumer self-completes via HelpStream.
  ThreadPool pool(1);
  const PipelineRun reference = RunPipeline(nullptr, 0, true);
  const PipelineRun streamed = RunPipeline(&pool, 8, true);
  EXPECT_EQ(streamed.hashes, reference.hashes);
  EXPECT_EQ(streamed.timing.streamed_batches, 1u);
  EXPECT_GE(streamed.timing.speculative_stale, 1u);
}

}  // namespace
}  // namespace vusion::host
