// Certificate layer tests: certify → check round trips on every catalog
// design (BMC and ATPG engines), deterministic JSON serialization that is
// byte-identical serial vs. parallel, and rejection of tampered
// certificates (forged outcomes, mutated witnesses, truncated proofs,
// wrong design).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parallel_detector.hpp"
#include "designs/catalog.hpp"
#include "proof/certificate.hpp"
#include "proof/json.hpp"

namespace trojanscout::proof {
namespace {

CertifyOptions full_algorithm(std::size_t frames, core::EngineKind engine =
                                                      core::EngineKind::kBmc) {
  CertifyOptions options;
  options.detector.engine.kind = engine;
  options.detector.engine.max_frames = frames;
  options.detector.engine.time_limit_seconds = 120.0;
  options.detector.scan_pseudo_critical = true;
  options.detector.check_bypass = true;
  return options;
}

std::size_t frames_for(const std::string& family) {
  return family == "aes" ? 4 : 8;
}

void expect_round_trip(const designs::Design& design,
                       const CertifyOptions& options) {
  const Certificate cert = certify(design, options);

  // The certificate must stand on its own through serialization.
  const std::string text = certificate_to_json(cert).dump();
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::parse(text, parsed, &error)) << error;
  Certificate restored;
  ASSERT_TRUE(certificate_from_json(parsed, restored, &error)) << error;
  EXPECT_EQ(certificate_to_json(restored).dump(), text)
      << design.name << ": JSON round trip is not the identity";

  const CertificateCheckResult check = check_certificate(restored, design);
  EXPECT_TRUE(check.ok) << design.name << ": "
                        << (check.errors.empty() ? "?" : check.errors[0]);
  EXPECT_EQ(restored.report_signature, cert.report_signature);
}

TEST(Certificate, RoundTripsOnEveryCatalogTrojan) {
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;  // keep unit tests fast
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    SCOPED_TRACE(info.name);
    const designs::Design design = info.build(/*payload_enabled=*/true);
    const CertifyOptions options = full_algorithm(frames_for(info.family));
    // The certificate's claim must be exactly what a plain audit reports —
    // certify() is Algorithm 1 plus evidence, not a variant.
    core::ParallelDetectorOptions audit_options;
    audit_options.detector = options.detector;
    audit_options.jobs = 1;
    const core::DetectionReport report =
        core::ParallelDetector(design, audit_options).run();
    const Certificate cert = certify(design, options);
    EXPECT_EQ(cert.report_signature, report.signature()) << info.name;
    EXPECT_EQ(cert.trojan_found, report.trojan_found) << info.name;
    expect_round_trip(design, options);
  }
}

TEST(Certificate, RoundTripsOnCleanDesignsWithCheckedCleanFrames) {
  for (const char* family : {"mc8051", "risc", "aes", "router"}) {
    SCOPED_TRACE(family);
    const designs::Design design = designs::build_clean(family);
    const CertifyOptions options = full_algorithm(frames_for(family));
    const Certificate cert = certify(design, options);
    EXPECT_FALSE(cert.trojan_found) << family;
    const CertificateCheckResult check = check_certificate(cert, design);
    EXPECT_TRUE(check.ok) << family << ": "
                          << (check.errors.empty() ? "?" : check.errors[0]);
    // A clean BMC audit is exactly where the DRAT evidence earns its keep:
    // every clean frame of every obligation must have been proof-checked.
    EXPECT_GT(check.drat_marks_checked, 0u) << family;
    EXPECT_EQ(check.unchecked_obligations, 0u) << family;
  }
}

TEST(Certificate, AtpgRunsRoundTripWithCleanFramesReportedUnchecked) {
  designs::CatalogOptions catalog_options;
  designs::Design design;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    if (info.name == "MC8051-T800") design = info.build(true);
  }
  ASSERT_FALSE(design.name.empty());
  CertifyOptions options = full_algorithm(8, core::EngineKind::kAtpg);
  options.detector.scan_pseudo_critical = false;
  const Certificate cert = certify(design, options);
  EXPECT_TRUE(cert.trojan_found);
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "?" : check.errors[0]);
  // ATPG answers carry no proof object; clean obligations are counted, not
  // silently trusted.
  EXPECT_EQ(check.drat_marks_checked, 0u);
  EXPECT_GT(check.witnesses_confirmed, 0u);
}

TEST(Certificate, SerialAndParallelCertifyAreByteIdentical) {
  designs::CatalogOptions catalog_options;
  catalog_options.risc_trigger_count = 4;
  for (const auto& info : designs::trojan_benchmarks(catalog_options)) {
    SCOPED_TRACE(info.name);
    const designs::Design design = info.build(/*payload_enabled=*/true);
    CertifyOptions options = full_algorithm(frames_for(info.family));
    const std::string serial = certificate_to_json(certify(design, options)).dump();
    options.jobs = 8;
    const std::string parallel =
        certificate_to_json(certify(design, options)).dump();
    EXPECT_EQ(parallel, serial) << info.name << " diverged at jobs=8";
  }
}

// ---- tamper rejection ------------------------------------------------------

designs::Design t800_design() {
  for (const auto& info : designs::trojan_benchmarks({})) {
    if (info.name == "MC8051-T800") return info.build(true);
  }
  ADD_FAILURE() << "MC8051-T800 missing from catalog";
  return {};
}

CertifyOptions t800_options() {
  CertifyOptions options = full_algorithm(8);
  options.detector.scan_pseudo_critical = false;  // 2 obligations, fast
  options.detector.check_bypass = true;
  return options;
}

TEST(CertificateTamper, ForgedCleanOutcomeIsRejected) {
  const designs::Design design = t800_design();
  Certificate cert = certify(design, t800_options());
  ASSERT_TRUE(cert.trojan_found);
  for (auto& record : cert.records) {
    if (!record.violated) continue;
    record.violated = false;
    record.bound_reached = true;
    record.status = "clean";
    record.witness.reset();
  }
  cert.trojan_found = false;
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_FALSE(check.ok);
}

TEST(CertificateTamper, MutatedWitnessBitsAreRejected) {
  const designs::Design design = t800_design();
  Certificate cert = certify(design, t800_options());
  bool mutated = false;
  for (auto& record : cert.records) {
    if (!record.witness.has_value() || record.witness->frames.empty()) continue;
    auto& bits = record.witness->frames.front().bits;
    if (bits.empty()) continue;
    bits.set(0, !bits.get(0));
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_FALSE(check.ok);
}

TEST(CertificateTamper, TruncatedDratMarksAreRejected) {
  const designs::Design design = t800_design();
  Certificate cert = certify(design, t800_options());
  bool mutated = false;
  for (auto& record : cert.records) {
    if (!record.drat.has_value() || record.drat->marks.empty()) continue;
    record.drat->marks.pop_back();
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_FALSE(check.ok);
}

TEST(CertificateTamper, OverstatedFrameCountIsRejected) {
  // Claiming more clean frames than the proof covers must fail: the forged
  // frames have no UnsatMark, so marks.size() != frames_completed.
  const designs::Design design = t800_design();
  Certificate cert = certify(design, t800_options());
  bool mutated = false;
  for (auto& record : cert.records) {
    if (!record.drat.has_value()) continue;
    record.frames_completed += 1;
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  cert.trust_bound_frames += 1;
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_FALSE(check.ok);
}

TEST(CertificateTamper, WrongDesignIsRejected) {
  const designs::Design design = t800_design();
  const Certificate cert = certify(design, t800_options());
  const designs::Design clean = designs::build_clean("mc8051");
  const CertificateCheckResult check = check_certificate(cert, clean);
  EXPECT_FALSE(check.ok);
}

TEST(CertificateTamper, CancelledRecordsAreNeverAccepted) {
  const designs::Design design = t800_design();
  Certificate cert = certify(design, t800_options());
  ASSERT_FALSE(cert.records.empty());
  cert.records.front().cancelled = true;
  cert.records.front().status = "cancelled";
  const CertificateCheckResult check = check_certificate(cert, design);
  EXPECT_FALSE(check.ok);
}

// ---- JSON / base64 building blocks ----------------------------------------

TEST(Json, ParseDumpsAreStableAndOrdered) {
  const std::string text =
      R"({"b":1,"a":[true,null,-3,"x\n\"y"],"c":{"nested":2.5}})";
  Json value;
  std::string error;
  ASSERT_TRUE(Json::parse(text, value, &error)) << error;
  EXPECT_EQ(value.dump(), text);  // insertion order preserved, not sorted
  Json reparsed;
  ASSERT_TRUE(Json::parse(value.dump_pretty(), reparsed, &error)) << error;
  EXPECT_EQ(reparsed.dump(), text);
}

TEST(Json, RejectsMalformedDocuments) {
  Json value;
  std::string error;
  EXPECT_FALSE(Json::parse("{", value, &error));
  EXPECT_FALSE(Json::parse("[1,]", value, &error));
  EXPECT_FALSE(Json::parse("{} trailing", value, &error));
  EXPECT_FALSE(Json::parse("\"unterminated", value, &error));
}

TEST(Base64, RoundTripsAllLengthsAndRejectsCorruption) {
  std::vector<std::uint8_t> data;
  for (int len = 0; len < 70; ++len) {
    const std::string encoded = base64_encode(data);
    std::vector<std::uint8_t> decoded;
    ASSERT_TRUE(base64_decode(encoded, decoded)) << "len " << len;
    EXPECT_EQ(decoded, data) << "len " << len;
    data.push_back(static_cast<std::uint8_t>(len * 37 + 11));
  }
  std::vector<std::uint8_t> decoded;
  EXPECT_FALSE(base64_decode("AB", decoded));      // bad padding
  EXPECT_FALSE(base64_decode("A===", decoded));    // bad padding
  EXPECT_FALSE(base64_decode("AA==AA==", decoded));  // data after padding
  EXPECT_FALSE(base64_decode("AAA!", decoded));    // alphabet violation
}

}  // namespace
}  // namespace trojanscout::proof
