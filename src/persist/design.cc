#include "persist/design.hh"

#include "persist/intel_engine.hh"
#include "persist/strand_engine.hh"

namespace strand
{

const char *
hwDesignName(HwDesign design)
{
    switch (design) {
      case HwDesign::IntelX86:
        return "intel-x86";
      case HwDesign::Hops:
        return "hops";
      case HwDesign::NoPersistQueue:
        return "no-persist-queue";
      case HwDesign::StrandWeaver:
        return "strandweaver";
      case HwDesign::NonAtomic:
        return "non-atomic";
    }
    return "?";
}

const char *
persistencyModelName(PersistencyModel model)
{
    switch (model) {
      case PersistencyModel::Txn:
        return "txn";
      case PersistencyModel::Sfr:
        return "sfr";
      case PersistencyModel::Atlas:
        return "atlas";
    }
    return "?";
}

std::unique_ptr<PersistEngine>
makePersistEngine(HwDesign design, std::string name, EventQueue &eq,
                  CoreId core, Hierarchy &hier,
                  const EngineConfig &config, stats::StatGroup *parent)
{
    auto build = [&]() -> std::unique_ptr<PersistEngine> {
        switch (design) {
          case HwDesign::IntelX86: {
            IntelEngineParams p;
            p.queueEntries = config.pqEntries;
            p.adversary = config.adversary;
            p.plantedEpochBug = config.plantedEpochBug;
            return std::make_unique<IntelEngine>(std::move(name), eq,
                                                 core, hier, p, parent);
          }
          case HwDesign::NonAtomic: {
            // The upper bound runs on StrandWeaver hardware; its
            // stream simply omits the pairwise log/update ordering.
            StrandEngineParams p = strandWeaverParams();
            p.pqEntries = config.pqEntries;
            p.sbu.numBuffers = config.strandBuffers;
            p.sbu.entriesPerBuffer = config.entriesPerBuffer;
            p.adversary = config.adversary;
            p.sbu.adversary = config.adversary;
            return std::make_unique<StrandEngine>(std::move(name), eq,
                                                  core, hier, p, parent);
          }
          case HwDesign::Hops: {
            StrandEngineParams p = hopsParams();
            p.pqEntries = config.pqEntries;
            p.epochInterlock = config.hopsEpochInterlock;
            p.strictAdmission = config.hopsStrictAdmission;
            p.adversary = config.adversary;
            p.sbu.adversary = config.adversary;
            return std::make_unique<StrandEngine>(std::move(name), eq,
                                                  core, hier, p, parent);
          }
          case HwDesign::NoPersistQueue: {
            StrandEngineParams p = noPersistQueueParams();
            p.sbu.numBuffers = config.strandBuffers;
            p.sbu.entriesPerBuffer = config.entriesPerBuffer;
            p.adversary = config.adversary;
            p.sbu.adversary = config.adversary;
            return std::make_unique<StrandEngine>(std::move(name), eq,
                                                  core, hier, p, parent);
          }
          case HwDesign::StrandWeaver: {
            StrandEngineParams p = strandWeaverParams();
            p.pqEntries = config.pqEntries;
            p.sbu.numBuffers = config.strandBuffers;
            p.sbu.entriesPerBuffer = config.entriesPerBuffer;
            p.adversary = config.adversary;
            p.sbu.adversary = config.adversary;
            return std::make_unique<StrandEngine>(std::move(name), eq,
                                                  core, hier, p, parent);
          }
        }
        panic("unknown hardware design");
    };
    auto engine = build();
    engine->setRecordCompletions(config.recordCompletionTicks);
    return engine;
}

} // namespace strand
