// Hospital admissions: multi-attribute degradation.
//
// "People give personal data explicitly all the time to insurance
// companies, hospitals, banks…" (paper §I). An admissions table keeps the
// patient identity (stable — that is the point of a medical record) while
// the sensitive attributes degrade on independent schedules: identity stays
// for care, detail fades as the records age.

#include <cstdio>

#include "common/strings.h"
#include "instantdb/instantdb.h"

using namespace instantdb;

namespace {

std::shared_ptr<const DomainHierarchy> DiagnosisDomain() {
  GeneralizationTree::Builder builder("diagnosis");
  builder.AddPath("Illness/Cardiovascular/Hypertension/essential hypertension");
  builder.AddPath("Illness/Cardiovascular/Hypertension/secondary hypertension");
  builder.AddPath("Illness/Cardiovascular/Arrhythmia/atrial fibrillation");
  builder.AddPath("Illness/Respiratory/Asthma/allergic asthma");
  builder.AddPath("Illness/Respiratory/Asthma/occupational asthma");
  builder.AddPath("Illness/Respiratory/Infection/bacterial pneumonia");
  auto tree = builder.Build();
  (*tree)->SetLevelNames({"DIAGNOSIS", "CONDITION", "SYSTEM", "ILLNESS"});
  return *tree;
}

std::shared_ptr<const DomainHierarchy> AgeDomain() {
  auto hierarchy = IntervalHierarchy::Make("age", 0, 120, {5, 20, 120});
  (*hierarchy)->SetLevelNames({"EXACT", "RANGE5", "RANGE20", "ANY"});
  return *hierarchy;
}

}  // namespace

int main() {
  VirtualClock clock;
  DbOptions options;
  options.path = "/tmp/instantdb_hospital";
  options.clock = &clock;
  RemoveDirRecursive(options.path).ok();
  auto db = Database::Open(options);
  if (!db.ok()) return 1;

  auto diagnosis = DiagnosisDomain();
  auto age = AgeDomain();
  // Diagnosis: exact for a week (treatment), condition for a year
  // (follow-up), body system forever (research).
  auto diagnosis_lcp = *AttributeLcp::Make(
      {{0, 7 * kMicrosPerDay}, {1, 365 * kMicrosPerDay}, {2, kForever}});
  // Age: exact for a month, 5-year band for a year, 20-year band forever.
  auto age_lcp = *AttributeLcp::Make(
      {{0, 30 * kMicrosPerDay}, {1, 365 * kMicrosPerDay}, {2, kForever}});

  auto schema = Schema::Make(
      {ColumnDef::Stable("patient", ValueType::kString),
       ColumnDef::Degradable("diagnosis", diagnosis, diagnosis_lcp),
       ColumnDef::Degradable("age", age, age_lcp)});
  (*db)->CreateTable("admissions", *schema).status();

  const auto* tree = static_cast<const GeneralizationTree*>(diagnosis.get());
  const auto diagnoses = tree->LabelsAtLevel(0);
  Random rng(11);
  for (int i = 0; i < 60; ++i) {
    const Value diag = Value::String(diagnoses[rng.Uniform(diagnoses.size())]);
    const Value patient_age = Value::Int64(rng.UniformRange(18, 95));
    (*db)->Insert("admissions", {Value::String(StringPrintf("patient-%03d", i)),
                                 diag, patient_age}).status();
  }

  Session session(db->get());

  std::printf("== Fresh data: clinicians see exact values ==\n");
  auto fresh = session.Execute(
      "SELECT patient, diagnosis, age FROM admissions WHERE age < 40");
  if (fresh.ok()) {
    std::printf("%zu patients under 40 with exact diagnosis/age visible\n",
                fresh->rows.size());
  }

  // Two months later: follow-up care works at CONDITION/RANGE5; identity
  // intact, so the ward can still contact the right patients.
  clock.Advance(60 * kMicrosPerDay);
  (*db)->RunDegradationOnce().status().ok();
  session.Execute(
      "DECLARE PURPOSE FOLLOWUP SET ACCURACY LEVEL CONDITION FOR "
      "admissions.diagnosis, RANGE5 FOR admissions.age").status();
  auto followup = session.Execute(
      "SELECT patient, diagnosis, age FROM admissions "
      "WHERE diagnosis = 'Hypertension'");
  if (followup.ok()) {
    std::printf("\n== 2 months later, purpose FOLLOWUP ==\n%s",
                followup->ToString().c_str());
  }

  // Research purpose at SYSTEM/RANGE20 level.
  session.Execute(
      "DECLARE PURPOSE RESEARCH SET ACCURACY LEVEL SYSTEM FOR "
      "admissions.diagnosis, RANGE20 FOR admissions.age").status();
  auto research = session.Execute(
      "SELECT diagnosis, COUNT(*) FROM admissions GROUP BY diagnosis");
  if (research.ok()) {
    std::printf("\n== Research view (SYSTEM accuracy) ==\n%s",
                research->ToString().c_str());
  }

  return 0;
}
