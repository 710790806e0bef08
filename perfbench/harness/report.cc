#include "harness/report.h"

#include <bit>
#include <cstdio>

#include "obs/json_writer.h"
#include "util/crc32.h"

namespace mbta::perfbench {

void Report::Error(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  errors.push_back(what);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  end_to_end.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  per_layer.push_back({name, value, unit});
}

void Report::PrintTail(const std::string& name, const TailStat& t,
                       const std::string& unit) const {
  std::printf("  %-28s %.6g %s (n=%zu, %zu above)\n", name.c_str(), t.value,
              unit.c_str(), t.samples, t.above);
}

void Report::Fingerprint(const std::string& bytes) {
  digest = Crc32(bytes, digest);
}

void Report::FingerprintDouble(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  digest = Crc32(&bits, sizeof bits, digest);
}

std::string Report::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Number(attempted);
  w.Key("failed");
  w.Number(failed);
  w.Key("errors");
  w.BeginArray();
  for (const std::string& e : errors) w.String(e);
  w.EndArray();
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", static_cast<unsigned>(digest));
  w.Key("digest");
  w.String(hex);
  for (const auto* group : {&end_to_end, &per_layer}) {
    w.Key(group == &end_to_end ? "end_to_end" : "per_layer");
    w.BeginObject();
    for (const Metric& m : *group) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.Number(m.value);
      w.Key("unit");
      w.String(m.unit);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

}  // namespace mbta::perfbench
