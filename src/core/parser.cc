#include "core/parser.h"

#include "core/tokenizer.h"

namespace bytebrain {

ByteBrainParser::ByteBrainParser(ByteBrainOptions options)
    : options_(std::move(options)), replacer_(VariableReplacer::Default()) {
  if (options_.unoptimized) {
    replacer_.set_use_fast_builtins(false);
  }
}

Status ByteBrainParser::AddVariableRule(std::string name,
                                        std::string_view pattern) {
  return replacer_.AddRule(std::move(name), pattern);
}

Status ByteBrainParser::Train(const std::vector<std::string>& logs) {
  Trainer trainer(options_.trainer);
  auto out = trainer.Train(logs, replacer_);
  if (!out.ok()) return out.status();
  last_output_ = std::move(out).value();
  model_ = std::move(last_output_.model);
  last_output_.model = TemplateModel();  // moved-from; keep stats only
  training_assignments_ = last_output_.assignments;
  RebuildMatcher();
  return Status::OK();
}

Status ByteBrainParser::Retrain(const std::vector<std::string>& logs) {
  if (model_.empty()) return Train(logs);
  Trainer trainer(options_.trainer);
  auto out = trainer.Train(logs, replacer_);
  if (!out.ok()) return out.status();
  // Unmatched-log temporaries are superseded by the fresh training run.
  model_.DropTemporaries();
  model_.MergeFrom(out.value().model, options_.merge_similarity);
  RebuildMatcher();
  return Status::OK();
}

Result<PreparedRetrain> ByteBrainParser::PrepareRetrain(
    TemplateModel base, const std::vector<std::string>& logs,
    int num_threads) const {
  return PrepareRetrain(
      std::move(base),
      std::vector<std::string_view>(logs.begin(), logs.end()), num_threads);
}

Result<PreparedRetrain> ByteBrainParser::PrepareRetrain(
    TemplateModel base, const std::vector<std::string_view>& logs,
    int num_threads) const {
  TrainerOptions options = options_.trainer;
  if (num_threads > 0) {
    options.num_threads = num_threads;
    options.preprocess.num_threads = num_threads;
  }
  Trainer trainer(std::move(options));
  auto out = trainer.Train(logs, replacer_);
  if (!out.ok()) return out.status();
  PreparedRetrain prepared;
  if (base.empty()) {
    // First training: the fresh model IS the successor.
    prepared.model = std::move(out.value().model);
  } else {
    base.DropTemporaries();
    base.MergeFrom(out.value().model, options_.merge_similarity);
    prepared.model = std::move(base);
  }
  prepared.matcher =
      std::make_unique<TemplateMatcher>(prepared.model, &replacer_);
  return prepared;
}

void ByteBrainParser::CommitRetrain(PreparedRetrain prepared) {
  model_ = std::move(prepared.model);
  matcher_ = std::move(prepared.matcher);
}

void ByteBrainParser::RebuildMatcher() {
  matcher_ = std::make_unique<TemplateMatcher>(model_, &replacer_);
}

TemplateId ByteBrainParser::Match(std::string_view log) const {
  if (matcher_ == nullptr) return kInvalidTemplateId;
  return matcher_->Match(log);
}

std::vector<TemplateId> ByteBrainParser::MatchAll(
    const std::vector<std::string>& logs, int num_threads) const {
  if (matcher_ == nullptr) {
    return std::vector<TemplateId>(logs.size(), kInvalidTemplateId);
  }
  return matcher_->MatchAll(logs, num_threads);
}

std::vector<TemplateId> ByteBrainParser::MatchAll(
    const std::vector<std::string_view>& logs, int num_threads) const {
  if (matcher_ == nullptr) {
    return std::vector<TemplateId>(logs.size(), kInvalidTemplateId);
  }
  return matcher_->MatchAll(logs, num_threads);
}

TemplateId ByteBrainParser::MatchOrAdopt(std::string_view log,
                                         bool* adopted) {
  if (adopted != nullptr) *adopted = false;
  const TemplateId id = Match(log);
  if (id != kInvalidTemplateId) return id;
  std::lock_guard<std::mutex> lock(adopt_mu_);
  // Re-check under the lock: a concurrent adopter may have inserted the
  // same shape already (the rebuilt matcher would now accept it).
  const TemplateId again = Match(log);
  if (again != kInvalidTemplateId) return again;
  std::string replaced = replacer_.Replace(log);
  std::vector<std::string_view> views = TokenizeDefault(replaced);
  std::vector<std::string> tokens(views.begin(), views.end());
  const TemplateId adopted_id = model_.AdoptTemporary(std::move(tokens));
  // Incremental insert: adoption happens on the ingestion hot path, a
  // full matcher rebuild there would be O(model size) per miss.
  if (matcher_ != nullptr) {
    matcher_->Insert(*model_.node(adopted_id));
  } else {
    RebuildMatcher();
  }
  if (adopted != nullptr) *adopted = true;
  return adopted_id;
}

Result<TemplateId> ByteBrainParser::ResolveAtThreshold(
    TemplateId id, double threshold) const {
  return model_.ResolveAtThreshold(id, threshold);
}

std::string ByteBrainParser::TemplateText(TemplateId id) const {
  return model_.TemplateText(id);
}

std::string ByteBrainParser::MergedWildcardText(TemplateId id) const {
  return model_.MergedWildcardText(id);
}

}  // namespace bytebrain
