// Out-of-memory behavior: when the host runs out of frames, engines must degrade
// gracefully (skip acting, keep correctness) rather than corrupt state.

#include <gtest/gtest.h>

#include "src/fusion/ksm.h"
#include "src/fusion/vusion_engine.h"
#include "src/kernel/process.h"
#include "src/workload/scenario.h"
#include "src/workload/vm_image.h"

namespace vusion {
namespace {

FusionConfig FastFusion() {
  FusionConfig config;
  config.wake_period = 1 * kMillisecond;
  config.pages_per_wake = 128;
  config.pool_frames = 64;
  return config;
}

TEST(OomTest, PoolShrinksWhenMemoryIsTight) {
  MachineConfig machine_config;
  machine_config.frame_count = 512;
  Machine machine(machine_config);
  // Consume almost everything before the engine arrives.
  Process& hog = machine.CreateProcess();
  const VirtAddr base = hog.AllocateRegion(420, PageType::kAnonymous, false, false);
  for (int i = 0; i < 420; ++i) {
    hog.SetupMapPattern(VaddrToVpn(base) + i, i);
  }
  FusionConfig config = FastFusion();
  config.pool_frames = 4096;  // far more than exists
  VUsionEngine engine(machine, config);
  EXPECT_LT(engine.pool().pool_size(), 4096u);
  EXPECT_GT(engine.pool().pool_size(), 0u);
}

TEST(OomTest, VUsionKeepsWorkingWhenBuddyExhausts) {
  MachineConfig machine_config;
  machine_config.frame_count = 1024;
  Machine machine(machine_config);
  VUsionEngine engine(machine, FastFusion());
  engine.Install();
  Process& p = machine.CreateProcess();
  // Fill memory almost completely with mergeable duplicates.
  const std::size_t pages = 850;
  const VirtAddr base = p.AllocateRegion(pages, PageType::kAnonymous, true, false);
  for (std::size_t i = 0; i < pages; ++i) {
    p.SetupMapPattern(VaddrToVpn(base) + i, 0x30 + (i % 8));
  }
  // The engine scans under near-OOM; fusion itself frees memory as it goes.
  machine.Idle(200 * kMillisecond);
  EXPECT_GT(engine.frames_saved(), pages / 2);
  // Every page still readable with correct content.
  PhysicalMemory probe(1);
  for (std::size_t i = 0; i < pages; i += 97) {
    probe.FillPattern(0, 0x30 + (i % 8));
    EXPECT_EQ(p.Read64(base + i * kPageSize), probe.ReadU64(0, 0)) << "page " << i;
  }
  engine.Uninstall();
}

TEST(OomTest, KsmCowFailureSurfacesAsFault) {
  // If the buddy allocator cannot supply a CoW frame, the write faults again and
  // ultimately surfaces as an error instead of silently corrupting the shared copy.
  MachineConfig machine_config;
  machine_config.frame_count = 512;
  Machine machine(machine_config);
  Ksm ksm(machine, FastFusion());
  ksm.Install();
  Process& p = machine.CreateProcess();
  const VirtAddr dup = p.AllocateRegion(2, PageType::kAnonymous, true, false);
  p.SetupMapPattern(VaddrToVpn(dup), 0x1);
  p.SetupMapPattern(VaddrToVpn(dup) + 1, 0x1);
  for (int i = 0; i < 200 && ksm.frames_saved() == 0; ++i) {
    machine.Idle(1 * kMillisecond);
  }
  ASSERT_EQ(ksm.frames_saved(), 1u);
  // Exhaust memory completely.
  Process& hog = machine.CreateProcess();
  const VirtAddr hog_base = hog.AllocateRegion(512, PageType::kAnonymous, false, false);
  std::size_t hogged = 0;
  while (machine.buddy().free_count() > 0) {
    hog.SetupMapZero(VaddrToVpn(hog_base) + hogged++);
  }
  const std::uint64_t shared_content = p.Read64(dup + kPageSize);
  EXPECT_THROW(p.Write64(dup, 0xbad), std::runtime_error);
  // The shared copy was NOT corrupted by the failed CoW.
  EXPECT_EQ(p.Read64(dup + kPageSize), shared_content);
  ksm.Uninstall();
}

TEST(OomTest, SoakChurnWithFusionNearCapacity) {
  // Soak: repeated boot/idle/destroy cycles at ~80% occupancy under VUsion; the
  // system must stay correct and return to baseline every cycle.
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 13;  // 32 MB
  Machine machine(machine_config);
  FusionConfig config = FastFusion();
  config.pool_frames = 256;
  VUsionEngine engine(machine, config);
  engine.Install();
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<Process*> vms;
    for (int v = 0; v < 3; ++v) {
      Process& vm = machine.CreateProcess();
      const VirtAddr base = vm.AllocateRegion(1800, PageType::kAnonymous, true, false);
      for (int i = 0; i < 1800; ++i) {
        vm.SetupMapPattern(VaddrToVpn(base) + i, 0x5000 + (i % 64));
      }
      vms.push_back(&vm);
      machine.Idle(30 * kMillisecond);
    }
    EXPECT_GT(engine.frames_saved(), 2000u) << "cycle " << cycle;
    for (Process* vm : vms) {
      machine.DestroyProcess(*vm);
    }
    machine.Idle(10 * kMillisecond);
    EXPECT_EQ(engine.frames_saved(), 0u);
    EXPECT_EQ(engine.stable_size(), 0u);
  }
  engine.Uninstall();
}

// Booting more guest memory than the machine has fails closed: the setup path
// throws a named error instead of mapping an invalid frame (which segfaulted
// in builds without assertions).
TEST(OomTest, BootPastFrameCountThrows) {
  ScenarioConfig config;
  config.engine = EngineKind::kVUsion;
  config.machine.frame_count = 1u << 15;
  config.fusion.pool_frames = 4096;
  Scenario scenario(config);
  ASSERT_NO_THROW(scenario.BootVm(VmImage::CatalogImage(0), 100));
  try {
    for (std::size_t i = 1; i < 3; ++i) {
      scenario.BootVm(VmImage::CatalogImage(i), 100 + i);
    }
    ADD_FAILURE() << "three catalog guests fit in 128 MB";
  } catch (const SetupOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pid 1,"), std::string::npos) << what;
    EXPECT_NE(what.find("vpn"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vusion
