#include "telemetry/run_report.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>

#include "util/json_escape.hpp"

namespace trojanscout::telemetry {

namespace {

void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // %.17g never emits JSON-invalid text for finite values; inf/nan would,
  // so clamp them to null.
  const std::string text(buf);
  if (text.find("inf") != std::string::npos ||
      text.find("nan") != std::string::npos) {
    out += "null";
  } else {
    out += text;
  }
}

}  // namespace

RunReport::Record::Field& RunReport::Record::upsert(std::string key,
                                                    bool timing) {
  for (Field& field : fields_) {
    if (field.key == key) {
      field.timing = timing;
      return field;
    }
  }
  fields_.emplace_back();
  fields_.back().key = std::move(key);
  fields_.back().timing = timing;
  return fields_.back();
}

RunReport::Record& RunReport::Record::set(std::string key, std::int64_t value,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kInt;
  field.int_value = value;
  return *this;
}

RunReport::Record& RunReport::Record::set(std::string key, std::uint64_t value,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kUint;
  field.uint_value = value;
  return *this;
}

RunReport::Record& RunReport::Record::set(std::string key, double value,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kDouble;
  field.double_value = value;
  return *this;
}

RunReport::Record& RunReport::Record::set(std::string key, bool value,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kBool;
  field.bool_value = value;
  return *this;
}

RunReport::Record& RunReport::Record::set(std::string key, std::string value,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kString;
  field.string_value = std::move(value);
  return *this;
}

RunReport::Record& RunReport::Record::set(std::string key,
                                          std::vector<std::uint64_t> values,
                                          bool timing) {
  Field& field = upsert(std::move(key), timing);
  field.kind = Field::Kind::kUintArray;
  field.array_value = std::move(values);
  return *this;
}

std::string RunReport::Record::to_json(bool include_timing) const {
  std::string out = "{";
  char buf[32];
  bool first = true;
  for (const Field& field : fields_) {
    if (field.timing && !include_timing) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    util::append_json_escaped(out, field.key);
    out += "\":";
    switch (field.kind) {
      case Field::Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%" PRId64, field.int_value);
        out += buf;
        break;
      case Field::Kind::kUint:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, field.uint_value);
        out += buf;
        break;
      case Field::Kind::kDouble:
        append_double(out, field.double_value);
        break;
      case Field::Kind::kBool:
        out += field.bool_value ? "true" : "false";
        break;
      case Field::Kind::kString:
        out += '"';
        util::append_json_escaped(out, field.string_value);
        out += '"';
        break;
      case Field::Kind::kUintArray: {
        out += '[';
        bool first_item = true;
        for (const std::uint64_t value : field.array_value) {
          if (!first_item) out += ',';
          first_item = false;
          std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
          out += buf;
        }
        out += ']';
        break;
      }
    }
  }
  out += '}';
  return out;
}

RunReport::Record& RunReport::add(const std::string& type) {
  records_.emplace_back();
  records_.back().set("type", type);
  return records_.back();
}

std::string RunReport::to_jsonl(bool include_timing) const {
  std::string out;
  for (const Record& record : records_) {
    out += record.to_json(include_timing);
    out += '\n';
  }
  return out;
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_jsonl(true);
  return os.good();
}

}  // namespace trojanscout::telemetry
