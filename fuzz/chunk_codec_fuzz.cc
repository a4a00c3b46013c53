/// \file chunk_codec_fuzz.cc
/// Fuzz harness for the ingest chunk decoder (serve/chunk_codec.h).
///
/// Properties enforced on every input, against a small fixed universe
/// (8 objects, 4 sources, one continuous + one categorical property):
///  * Decode never crashes, hangs, over-allocates, or trips a sanitizer —
///    arbitrary CSV bytes come back as a clean Status, with the payload
///    size and the parsed object/source counts bounds-checked against the
///    universe before they size anything.
///  * Anything it accepts has the SplitByWindow shape: parent_object is
///    strictly ascending, every index is inside the universe, the chunk
///    carries the full universe source roster, and quarantine mode never
///    changes that shape (only which claims survive).
///  * Decoding is canonicalizing: re-encoding an accepted chunk with
///    WriteObservationsCsv and decoding again reproduces the identical
///    chunk, cell for cell.
///  * Anything it accepts can be applied: a consistent StreamEngine over
///    the universe applies the chunk twice, as seq 0 and seq 1, so the
///    second apply repeats every claim of the first. Each apply returns OK
///    or a clean error Status; it never aborts.
///
/// The committed corpus (fuzz/corpus/chunk_codec) holds valid chunk CSV
/// over this universe plus unknown-entity, unknown-label, and malformed
/// variants; regenerate it with scripts/make_protocol_corpus.py.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/csv.h"
#include "serve/chunk_codec.h"
#include "stream/stream_engine.h"

namespace {

const crh::Dataset& Universe() {
  static const crh::Dataset universe = [] {
    crh::Schema schema;
    CRH_CHECK(schema.AddContinuous("x", 0.0).ok());
    CRH_CHECK(schema.AddCategorical("y").ok());
    std::vector<std::string> objects;
    for (int i = 0; i < 8; ++i) objects.push_back("o" + std::to_string(i));
    std::vector<std::string> sources;
    for (int k = 0; k < 4; ++k) sources.push_back("s" + std::to_string(k));
    crh::Dataset data(std::move(schema), std::move(objects), sources);
    for (const char* label : {"a", "b", "c"}) {
      data.mutable_dict(1).GetOrAdd(label);
    }
    return data;
  }();
  return universe;
}

void CheckShapeAndCanonical(const crh::ChunkCodec& codec,
                            const crh::DataChunk& chunk, bool quarantine) {
  const crh::Dataset& universe = Universe();
  CRH_CHECK_EQ(chunk.data.num_sources(), universe.num_sources());
  CRH_CHECK_EQ(chunk.data.num_objects(), chunk.parent_object.size());
  for (size_t local = 0; local < chunk.parent_object.size(); ++local) {
    CRH_CHECK(chunk.parent_object[local] < universe.num_objects());
    if (local > 0) {
      CRH_CHECK_MSG(chunk.parent_object[local - 1] < chunk.parent_object[local],
                    "parent_object must be strictly ascending");
    }
  }

  // Quarantined claims decode to the invalid-category sentinel, which
  // observation CSV cannot represent: re-encoding such a chunk must fail
  // with a typed error (the fuzzer originally caught an out-of-bounds
  // dictionary read here), and a sentinel-free chunk must round-trip.
  bool has_quarantined_claim = false;
  for (size_t k = 0; k < chunk.data.num_sources(); ++k) {
    for (size_t i = 0; i < chunk.data.num_objects(); ++i) {
      for (size_t m = 0; m < chunk.data.schema().num_properties(); ++m) {
        const crh::Value v = chunk.data.observations(k).Get(i, m);
        if (v.is_categorical() && v.category() == crh::kInvalidCategory) {
          has_quarantined_claim = true;
        }
      }
    }
  }

  std::ostringstream out;
  const crh::Status encoded = crh::WriteObservationsCsv(chunk.data, out);
  if (has_quarantined_claim) {
    CRH_CHECK_MSG(!encoded.ok(),
                  "a quarantined claim must not serialize to CSV");
    CRH_CHECK(encoded.code() == crh::StatusCode::kInvalidArgument);
    return;
  }
  CRH_CHECK(encoded.ok());
  auto again = codec.Decode(out.str(), chunk.window_start, quarantine);
  CRH_CHECK_MSG(again.ok(), "re-encoded accepted chunk must decode");
  CRH_CHECK(again->parent_object == chunk.parent_object);
  for (size_t k = 0; k < chunk.data.num_sources(); ++k) {
    for (size_t i = 0; i < chunk.data.num_objects(); ++i) {
      for (size_t m = 0; m < chunk.data.schema().num_properties(); ++m) {
        CRH_CHECK_MSG(again->data.observations(k).Get(i, m) ==
                          chunk.data.observations(k).Get(i, m),
                      "canonical re-decode must match cell for cell");
      }
    }
  }
}

void ApplyTwiceConsistently(const crh::DataChunk& chunk, bool quarantine) {
  crh::IncrementalCrhOptions options;
  options.truth_mode = crh::TruthMode::kConsistent;
  options.quarantine_bad_claims = quarantine;
  auto engine = crh::StreamEngine::Open(Universe(), options, crh::StreamResilienceOptions{});
  CRH_CHECK(engine.ok());
  for (int seq = 0; seq < 2; ++seq) {
    // OK or a clean error are both fine; reaching the next line is the
    // property.
    const crh::Status applied = (*engine)->ApplyChunk(chunk, /*force_checkpoint=*/false);
    static_cast<void>(applied);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string csv(reinterpret_cast<const char*>(data), size);
  const crh::ChunkCodec codec(Universe());
  for (const bool quarantine : {false, true}) {
    auto decoded = codec.Decode(csv, /*window_start=*/0, quarantine);
    if (decoded.ok()) {
      CheckShapeAndCanonical(codec, *decoded, quarantine);
      ApplyTwiceConsistently(*decoded, quarantine);
    }
  }
  return 0;
}
