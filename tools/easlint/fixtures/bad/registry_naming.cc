// Known-bad fixture: registration names breaking the established rules
// (policies are lowercase snake_case; scenarios, governors and sink kinds
// are lowercase kebab-case).
namespace eas {

struct BalancePolicyRegistry {
  static BalancePolicyRegistry& Global();
  void Register(const char* name, int factory);
};

struct ScenarioRegistry {
  static ScenarioRegistry& Global();
  void Register(const char* name, int factory);
};

struct FrequencyGovernorRegistry {
  static FrequencyGovernorRegistry& Global();
  void Register(const char* name, int factory);
};

struct SinkRegistry {
  static SinkRegistry& Global();
  void Register(const char* name, int factory);
};

void RegisterBuiltins() {
  BalancePolicyRegistry::Global().Register("energy-aware", 1);  // expect: registry-naming
  ScenarioRegistry::Global().Register("paper_mixed", 2);  // expect: registry-naming
  FrequencyGovernorRegistry::Global().Register("ThermalStepdown", 3);  // expect: registry-naming
  SinkRegistry::Global().Register("json_lines", 6);  // expect: registry-naming
  BalancePolicyRegistry::Global().Register("load_only", 4);  // conforming: no finding
  ScenarioRegistry::Global().Register("paper-mixed", 5);  // conforming: no finding
}

}  // namespace eas
