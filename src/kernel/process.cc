#include "src/kernel/process.h"

#include <array>
#include <cassert>
#include <string>

namespace vusion {

namespace {
// Processes lay out regions starting well above the null page, 512-aligned so huge
// mappings are always possible, with a guard gap between regions.
constexpr Vpn kFirstRegionVpn = 0x200;
constexpr Vpn kRegionGuardPages = kPagesPerHugePage;
}  // namespace

Process::Process(Machine& machine, std::uint32_t id)
    : machine_(&machine),
      id_(id),
      address_space_(id, machine.buddy(), machine.memory()),
      next_region_vpn_(kFirstRegionVpn) {}

VirtAddr Process::AllocateRegion(std::uint64_t pages, PageType type, bool mergeable,
                                 bool thp_eligible) {
  const Vpn start = next_region_vpn_;
  VmArea vma;
  vma.start = start;
  vma.pages = pages;
  vma.type = type;
  vma.mergeable = mergeable;
  vma.thp_eligible = thp_eligible;
  address_space_.AddVma(vma);
  // Keep regions 512-aligned and separated by a guard gap.
  const std::uint64_t padded = (pages + kRegionGuardPages + kPagesPerHugePage - 1) &
                               ~(kPagesPerHugePage - 1);
  next_region_vpn_ = start + padded;
  return VpnToVaddr(start);
}

void Process::InheritLayout(const Process& parent) {
  for (const VmArea& vma : parent.address_space().vmas().areas()) {
    address_space_.AddVma(vma);
  }
  next_region_vpn_ = parent.next_region_vpn_;
}

void Process::Madvise(VirtAddr vaddr, std::uint64_t pages) {
  address_space_.MadviseMergeable(VaddrToVpn(vaddr), pages);
}

void Process::MadviseUnmergeable(VirtAddr vaddr, std::uint64_t pages) {
  const Vpn start = VaddrToVpn(vaddr);
  if (machine_->sharing_policy() != nullptr) {
    machine_->sharing_policy()->OnUnregister(*this, start, pages);
  }
  address_space_.MadviseUnmergeable(start, pages);
}

FrameId Process::AllocateSetupFrame(Vpn vpn) {
  // Setup scaffolding treats OOM as fatal, so it is exempt from fault injection
  // (like the page-table __GFP_NOFAIL path): only genuine exhaustion fails.
  const FaultInjector::ScopedSuppress no_chaos;
  const FrameId frame = machine_->buddy().Allocate();
  if (frame == kInvalidFrame) {
    throw SetupOutOfMemory("machine out of memory during setup (pid " +
                           std::to_string(id_) + ", vpn " + std::to_string(vpn) + ")");
  }
  return frame;
}

void Process::SetupMapPattern(Vpn vpn, std::uint64_t seed) {
  const FrameId frame = AllocateSetupFrame(vpn);
  machine_->memory().FillPattern(frame, seed);
  address_space_.MapPage(vpn, frame, kPtePresent | kPteWritable);
}

void Process::SetupMapZero(Vpn vpn) {
  const FrameId frame = AllocateSetupFrame(vpn);
  machine_->memory().FillZero(frame);
  address_space_.MapPage(vpn, frame, kPtePresent | kPteWritable);
}

bool Process::SetupMapHuge(Vpn base_vpn, std::uint64_t seeds_base) {
  std::array<std::uint64_t, kPagesPerHugePage> seeds;
  for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
    seeds[i] = seeds_base + i;
  }
  return SetupMapHugeSeeds(base_vpn, seeds);
}

bool Process::SetupMapHugeSeeds(Vpn base_vpn, std::span<const std::uint64_t> seeds) {
  assert(base_vpn % kPagesPerHugePage == 0);
  assert(seeds.size() == kPagesPerHugePage);
  const FrameId block = machine_->buddy().AllocateOrder(kHugePageOrder);
  if (block == kInvalidFrame) {
    return false;
  }
  for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
    if (seeds[i] == 0) {
      machine_->memory().FillZero(block + static_cast<FrameId>(i));
    } else {
      machine_->memory().FillPattern(block + static_cast<FrameId>(i), seeds[i]);
    }
  }
  address_space_.MapHugeRange(base_vpn, block, kPtePresent | kPteWritable);
  return true;
}

void Process::SetupUnmap(Vpn vpn) { machine_->UnmapAndFree(*this, vpn); }

std::uint64_t Process::Read64(VirtAddr vaddr) {
  return machine_->Access(*this, vaddr, AccessType::kRead, 0).value;
}

void Process::Write64(VirtAddr vaddr, std::uint64_t value) {
  machine_->Access(*this, vaddr, AccessType::kWrite, value);
}

SimTime Process::TimedRead(VirtAddr vaddr) {
  return machine_->Access(*this, vaddr, AccessType::kRead, 0).latency;
}

SimTime Process::TimedWrite(VirtAddr vaddr, std::uint64_t value) {
  return machine_->Access(*this, vaddr, AccessType::kWrite, value).latency;
}

void Process::Prefetch(VirtAddr vaddr) { machine_->Prefetch(*this, vaddr); }

void Process::FlushCacheLine(VirtAddr vaddr) { machine_->FlushCacheLine(*this, vaddr); }

FrameId Process::TranslateFrame(Vpn vpn) const {
  const Pte* pte = address_space_.GetPte(vpn);
  if (pte == nullptr || pte->flags == 0 || pte->frame == kInvalidFrame) {
    return kInvalidFrame;
  }
  if (pte->huge()) {
    return pte->frame + static_cast<FrameId>(vpn & (kPagesPerHugePage - 1));
  }
  return pte->frame;
}

}  // namespace vusion
