// The one JSON string escaper. Every hand-written JSON emitter in the tree
// (the telemetry artifacts, proof::Json, the bench-history writer) appends
// string contents through it, so they all agree byte for byte.
#pragma once

#include <string>
#include <string_view>

namespace trojanscout::util {

/// Appends `text` to `out` as the body of a JSON string literal (no
/// surrounding quotes): `"` and `\` are backslash-escaped, \n \r \t use
/// their short forms, other bytes below 0x20 become \u00XX. Every other
/// byte, UTF-8 included, is copied unchanged.
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace trojanscout::util
