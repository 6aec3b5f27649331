#include "platform/templates.h"

#include <utility>

namespace easeml::platform {

std::string WorkloadTypeName(WorkloadType type) {
  switch (type) {
    case WorkloadType::kImageClassification:
      return "image/tensor classification";
    case WorkloadType::kImageRecovery:
      return "image/tensor recovery";
    case WorkloadType::kTimeSeriesClassification:
      return "time series classification";
    case WorkloadType::kTimeSeriesTranslation:
      return "time series translation";
    case WorkloadType::kTreeClassification:
      return "tree classification";
    case WorkloadType::kGeneralClassification:
      return "general classification";
    case WorkloadType::kGeneralAutoEncoder:
      return "general auto-encoder";
  }
  return "unknown";
}

bool SidePattern::Matches(const DataType& dt) const {
  const size_t required = tensor_ranks.size();
  if (tensor_tail_wildcard) {
    if (dt.nonrec_fields.size() < required) return false;
  } else {
    if (dt.nonrec_fields.size() != required) return false;
  }
  for (size_t i = 0; i < required; ++i) {
    if (dt.nonrec_fields[i].shape.rank() != tensor_ranks[i]) return false;
  }
  if (!rec_wildcard &&
      static_cast<int>(dt.rec_fields.size()) != rec_count) {
    return false;
  }
  return true;
}

namespace {

/// A side with `tensor_ranks` leading non-recurrent tensors (any more after
/// them when `tensor_tail_wildcard`) and `rec_count` recurrent fields (any
/// number when `rec_wildcard`).
SidePattern Side(std::vector<int> tensor_ranks, bool tensor_tail_wildcard,
                 int rec_count, bool rec_wildcard) {
  SidePattern side;
  side.tensor_ranks = std::move(tensor_ranks);
  side.tensor_tail_wildcard = tensor_tail_wildcard;
  side.rec_count = rec_count;
  side.rec_wildcard = rec_wildcard;
  return side;
}

/// `[*], [*]`: anything.
SidePattern AnySide() { return Side({}, true, 0, true); }

void AddRow(std::vector<ModelTemplate>* table, SidePattern input,
            SidePattern output, WorkloadType workload,
            std::vector<std::string> candidate_models) {
  ModelTemplate row;
  row.input = std::move(input);
  row.output = std::move(output);
  row.workload = workload;
  row.candidate_models = std::move(candidate_models);
  table->push_back(std::move(row));
}

std::vector<ModelTemplate> MakeBuiltinTemplates() {
  std::vector<ModelTemplate> t;
  // Input {[Tensor[A,B,C]], []} -> Output {[Tensor[D]], []}.
  AddRow(&t, Side({3}, false, 0, false), Side({1}, false, 0, false),
         WorkloadType::kImageClassification,
         {"AlexNet", "ResNet-50", "ResNet-18", "GoogLeNet", "SqueezeNet",
          "VGG-16", "NIN", "BN-AlexNet"});
  // Input {[Tensor[A,B,C]], []} -> Output {[Tensor[D,E,F]], []}.
  AddRow(&t, Side({3}, false, 0, false), Side({3}, false, 0, false),
         WorkloadType::kImageRecovery, {"Auto-encoder", "GAN", "pix2pix"});
  // Input {[Tensor[A], *], [a]} -> Output {[Tensor[D]], []}.
  AddRow(&t, Side({1}, true, 1, false), Side({1}, false, 0, false),
         WorkloadType::kTimeSeriesClassification,
         {"RNN", "LSTM", "bi-LSTM", "GRU"});
  // Input {[Tensor[A], *], [a]} -> Output {[Tensor[B], *], [b]}.
  AddRow(&t, Side({1}, true, 1, false), Side({1}, true, 1, false),
         WorkloadType::kTimeSeriesTranslation, {"seq2seq"});
  // Input {[Tensor[A], *], [a, c]} -> Output {[Tensor[B]], []}.
  AddRow(&t, Side({1}, true, 2, false), Side({1}, false, 0, false),
         WorkloadType::kTreeClassification, {"Tree-RNN", "Tree-kernel-SVM"});
  // Input {[*], [*]} -> Output {[Tensor[B]], []}.
  AddRow(&t, AnySide(), Side({1}, false, 0, false),
         WorkloadType::kGeneralClassification, {"Bit-level-RNN"});
  // Input {[*], [*]} -> Output {[*], [*]}.
  AddRow(&t, AnySide(), AnySide(), WorkloadType::kGeneralAutoEncoder,
         {"Bit-level-Auto-encoder"});
  return t;
}

}  // namespace

const std::vector<ModelTemplate>& BuiltinTemplates() {
  // The Figure-4 table, top (most specific) to bottom (most general).
  static const auto* kTemplates =
      new std::vector<ModelTemplate>(MakeBuiltinTemplates());
  return *kTemplates;
}

Result<TemplateMatch> MatchTemplates(const Program& program) {
  EASEML_RETURN_NOT_OK(program.Validate());
  for (const auto& t : BuiltinTemplates()) {
    if (t.input.Matches(program.input) && t.output.Matches(program.output)) {
      return TemplateMatch{t.workload, t.candidate_models};
    }
  }
  return Status::NotFound("no template matches program " +
                          program.ToString());
}

}  // namespace easeml::platform
