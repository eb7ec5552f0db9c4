#include "trace/trace_set.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <thread>

#include "trace/tail_trace.h"

namespace jig {

std::vector<ChannelShard> TraceSet::PartitionByChannel() {
  std::map<Channel, ChannelShard> by_channel;  // ordered by channel number
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Channel ch = streams_[i]->header().channel;
    auto [it, inserted] = by_channel.try_emplace(ch);
    if (inserted) it->second.channel = ch;
    it->second.traces.Add(std::move(streams_[i]));
    it->second.source_index.push_back(i);
  }
  streams_.clear();
  std::vector<ChannelShard> shards;
  shards.reserve(by_channel.size());
  for (auto& [ch, shard] : by_channel) shards.push_back(std::move(shard));
  return shards;
}

void TraceSet::AdoptShards(std::vector<ChannelShard> shards) {
  if (!streams_.empty()) {
    throw std::logic_error("AdoptShards: target TraceSet is not empty");
  }
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.traces.size();
  streams_.resize(total);
  for (auto& shard : shards) {
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      const std::size_t at = shard.source_index[i];
      if (at >= total || streams_[at]) {
        throw std::logic_error("AdoptShards: inconsistent source indices");
      }
      streams_[at] = std::move(shard.traces.streams_[i]);
    }
  }
}

void TraceDirectoryScan::Step(std::error_code& ec) {
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::error_code type_ec;
    if (!entry.is_regular_file(type_ec) ||
        entry.path().extension() != ".jigt" ||
        opened_.contains(entry.path())) {
      continue;
    }
    std::unique_ptr<RecordStream> stream;
    if (tail_) {
      stream = TailFileTrace::TryOpen(entry.path());  // nullptr: not yet
    } else {
      stream = std::make_unique<FileTrace>(entry.path());
    }
    if (stream) opened_.emplace(entry.path(), std::move(stream));
  }
}

std::vector<std::unique_ptr<RecordStream>> TraceDirectoryScan::Take() {
  std::vector<std::pair<std::filesystem::path, std::unique_ptr<RecordStream>>>
      ordered;
  ordered.reserve(opened_.size());
  for (auto& [path, stream] : opened_) {
    ordered.emplace_back(path, std::move(stream));
  }
  opened_.clear();
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second->header().radio, a.first) <
           std::tie(b.second->header().radio, b.first);
  });
  std::vector<std::unique_ptr<RecordStream>> streams;
  streams.reserve(ordered.size());
  for (auto& entry : ordered) streams.push_back(std::move(entry.second));
  return streams;
}

TraceSet TraceSet::OpenDirectory(const std::filesystem::path& dir) {
  TraceDirectoryScan scan(dir, /*tail=*/false);
  std::error_code ec;
  scan.Step(ec);
  if (ec) {
    throw std::filesystem::filesystem_error("cannot list trace directory",
                                            dir, ec);
  }
  TraceSet set;
  for (auto& s : scan.Take()) set.Add(std::move(s));
  return set;
}

TraceSet TraceSet::FollowDirectory(const std::filesystem::path& dir,
                                   std::size_t expected_traces,
                                   std::chrono::milliseconds poll_interval,
                                   std::chrono::milliseconds timeout) {
  // Without an expected count, require the file count to hold still for a
  // whole settle period, not just one poll: capture daemons create their
  // files staggered, and locking onto a partial set would silently merge
  // without the late radios (the set cannot grow after this returns).
  constexpr int kSettlePolls = 10;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  TraceDirectoryScan scan(dir, /*tail=*/true);
  std::size_t last_count = 0;
  int stable_polls = 0;
  for (;;) {
    std::error_code ec;  // a directory not created yet has no traces yet
    scan.Step(ec);
    stable_polls = scan.size() == last_count ? stable_polls + 1 : 0;
    const bool ready = expected_traces != 0
                           ? scan.size() >= expected_traces
                           : !scan.empty() && stable_polls >= kSettlePolls;
    if (ready) {
      TraceSet set;
      for (auto& s : scan.Take()) set.Add(std::move(s));
      return set;
    }
    last_count = scan.size();
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(
          "FollowDirectory: timed out waiting for traces in " + dir.string());
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

std::vector<std::filesystem::path> TraceSet::WriteDirectory(
    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  paths.reserve(streams_.size());
  for (auto& stream : streams_) {
    stream->Rewind();
    // Built with += (not operator+ on a temporary) to sidestep the gcc 12
    // -Wrestrict false positive on "literal" + std::to_string(...) chains.
    std::string name = "r";
    name += std::to_string(stream->header().radio);
    name += ".jigt";
    const auto path = dir / name;
    TraceFileWriter writer(path, stream->header());
    while (auto rec = stream->Next()) writer.Append(*rec);
    writer.Finish();
    stream->Rewind();
    paths.push_back(path);
  }
  return paths;
}

}  // namespace jig
