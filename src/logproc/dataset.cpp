#include "logproc/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace nfv::logproc {

using nfv::util::Duration;
using nfv::util::SimTime;

std::vector<ParsedLog> exclude_intervals(std::span<const ParsedLog> logs,
                                         std::span<const TimeInterval> drop) {
  std::vector<ParsedLog> out;
  out.reserve(logs.size());
  for (const ParsedLog& log : logs) {
    bool excluded = false;
    for (const TimeInterval& interval : drop) {
      if (interval.contains(log.time)) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out.push_back(log);
  }
  return out;
}

std::vector<ParsedLog> slice_time(std::span<const ParsedLog> logs,
                                  SimTime begin, SimTime end) {
  std::vector<ParsedLog> out;
  for (const ParsedLog& log : logs) {
    if (log.time >= begin && log.time < end) out.push_back(log);
  }
  return out;
}

void append_sequence_windows(std::span<const ParsedLog> logs,
                             std::size_t window, nfv::ml::WindowBatch& out,
                             Duration max_gap) {
  NFV_CHECK(window >= 1, "window must be >= 1");
  for (std::size_t i = window; i < logs.size(); ++i) {
    // Reject windows spanning a session break.
    bool gap_break = false;
    for (std::size_t j = i - window + 1; j <= i; ++j) {
      if (logs[j].time - logs[j - 1].time > max_gap) {
        gap_break = true;
        break;
      }
    }
    if (gap_break) continue;
    for (std::size_t idx = i - window; idx < i; ++idx) {
      out.ids.push_back(logs[idx].template_id);
      const Duration dt =
          idx == 0 ? Duration{0} : logs[idx].time - logs[idx - 1].time;
      out.dts.push_back(static_cast<float>(dt.seconds));
    }
    out.targets.push_back(logs[i].template_id);
  }
}

std::vector<double> template_distribution(std::span<const ParsedLog> logs,
                                          std::size_t vocab) {
  std::vector<double> dist(vocab, 0.0);
  for (const ParsedLog& log : logs) {
    if (log.template_id >= 0 &&
        static_cast<std::size_t>(log.template_id) < vocab) {
      dist[static_cast<std::size_t>(log.template_id)] += 1.0;
    }
  }
  nfv::util::normalize_l1(dist);
  return dist;
}

std::vector<Document> build_documents(std::span<const ParsedLog> logs,
                                      std::size_t doc_size) {
  NFV_CHECK(doc_size >= 1, "doc_size must be >= 1");
  std::vector<Document> out;
  if (logs.size() < doc_size) return out;
  const std::size_t stride = std::max<std::size_t>(doc_size / 2, 1);
  for (std::size_t start = 0; start + doc_size <= logs.size();
       start += stride) {
    Document doc;
    doc.template_ids.reserve(doc_size);
    for (std::size_t i = start; i < start + doc_size; ++i) {
      doc.template_ids.push_back(logs[i].template_id);
    }
    doc.time = logs[start + doc_size - 1].time;
    out.push_back(std::move(doc));
  }
  return out;
}

void TfidfFeaturizer::fit(std::span<const Document> docs, std::size_t vocab) {
  NFV_CHECK(vocab > 0, "TfidfFeaturizer requires a vocabulary");
  idf_.assign(vocab, 0.0);
  if (docs.empty()) return;
  std::vector<std::uint8_t> seen(vocab);
  for (const Document& doc : docs) {
    std::fill(seen.begin(), seen.end(), 0);
    for (std::int32_t id : doc.template_ids) {
      if (id >= 0 && static_cast<std::size_t>(id) < vocab) {
        seen[static_cast<std::size_t>(id)] = 1;
      }
    }
    for (std::size_t t = 0; t < vocab; ++t) idf_[t] += seen[t];
  }
  const double n = static_cast<double>(docs.size());
  for (double& df : idf_) {
    // Smoothed idf, never negative.
    df = std::log((n + 1.0) / (df + 1.0)) + 1.0;
  }
}

std::vector<float> TfidfFeaturizer::transform(const Document& doc) const {
  NFV_CHECK(fitted(), "TfidfFeaturizer::transform before fit");
  std::vector<float> out(idf_.size(), 0.0f);
  if (doc.template_ids.empty()) return out;
  for (std::int32_t id : doc.template_ids) {
    if (id >= 0 && static_cast<std::size_t>(id) < out.size()) {
      out[static_cast<std::size_t>(id)] += 1.0f;
    }
  }
  const float inv_len = 1.0f / static_cast<float>(doc.template_ids.size());
  double norm2 = 0.0;
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = out[t] * inv_len * static_cast<float>(idf_[t]);
    norm2 += static_cast<double>(out[t]) * out[t];
  }
  if (norm2 > 0.0) {
    const auto inv_norm = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& x : out) x *= inv_norm;
  }
  return out;
}

nfv::ml::Matrix TfidfFeaturizer::transform_batch(
    std::span<const Document> docs) const {
  nfv::ml::Matrix out(docs.size(), idf_.size());
  for (std::size_t r = 0; r < docs.size(); ++r) {
    const std::vector<float> row = transform(docs[r]);
    std::copy(row.begin(), row.end(), out.row(r));
  }
  return out;
}

}  // namespace nfv::logproc
