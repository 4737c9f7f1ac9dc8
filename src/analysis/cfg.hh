/**
 * @file
 * Intra-procedural control-flow graphs over AIR method bodies.
 */

#ifndef SIERRA_ANALYSIS_CFG_HH
#define SIERRA_ANALYSIS_CFG_HH

#include <string>
#include <vector>

#include "air/method.hh"

namespace sierra::analysis {

/** A maximal straight-line instruction sequence. */
struct BasicBlock {
    int id{-1};
    int first{0}; //!< index of the first instruction
    int last{0};  //!< index of the last instruction (inclusive)
    std::vector<int> succs;
    std::vector<int> preds;
};

/**
 * The CFG of one method.
 *
 * Block 0 is the entry block; a synthetic exit block (with no
 * instructions) collects all returns/throws so dominance queries have a
 * single sink.
 */
class Cfg
{
  public:
    explicit Cfg(const air::Method &method);

    const air::Method &method() const { return _method; }

    const std::vector<BasicBlock> &blocks() const { return _blocks; }
    int numBlocks() const { return static_cast<int>(_blocks.size()); }

    int entryBlock() const { return 0; }
    int exitBlock() const { return _exitBlock; }

    /** Block containing the given instruction index. */
    int blockOf(int instr_idx) const { return _blockOfInstr[instr_idx]; }

    /** Instruction-level successor indices of an instruction. */
    std::vector<int> instrSuccs(int instr_idx) const;
    /** Number of instruction-level predecessors of an instruction. */
    int
    numInstrPreds(int instr_idx) const
    {
        const BasicBlock &block = _blocks[blockOf(instr_idx)];
        return instr_idx > block.first
                   ? 1
                   : static_cast<int>(block.preds.size());
    }
    /** The k-th predecessor, 0 <= k < numInstrPreds(instr_idx). The
     *  pair allocates nothing: the symbolic executor walks
     *  predecessors once per expanded state. */
    int
    instrPred(int instr_idx, int k) const
    {
        const BasicBlock &block = _blocks[blockOf(instr_idx)];
        return instr_idx > block.first ? instr_idx - 1
                                       : _blocks[block.preds[k]].last;
    }

    /** Debug rendering: one line per block with ranges and edges. */
    std::string toString() const;

  private:
    const air::Method &_method;
    std::vector<BasicBlock> _blocks;
    std::vector<int> _blockOfInstr;
    int _exitBlock{-1};
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CFG_HH
