#include "workloads/rbtree.hh"

#include "sim/random.hh"

namespace strand
{

namespace
{

constexpr std::uint32_t treeLock = 3;
constexpr std::uint64_t treeKeySpace = 8192;

constexpr Addr fKey = 0;
constexpr Addr fColor = 8; // 0 = black, 1 = red
constexpr Addr fLeft = 16;
constexpr Addr fRight = 24;
constexpr Addr fParent = 32;
constexpr Addr fValue = 40;

constexpr std::uint64_t black = 0;
constexpr std::uint64_t red = 1;

/**
 * Field accessors routed through the recorder: every read is a Load
 * event, every write a LoggedStore (inside the region). The nil node
 * is address 0 and is always black.
 */
struct Rb
{
    TraceRecorder &rec;
    CoreId t;
    Addr rootPtr;

    Addr root() { return rec.read(t, rootPtr); }
    void setRoot(Addr n) { rec.write(t, rootPtr, n); }

    std::uint64_t key(Addr n) { return rec.read(t, n + fKey); }
    Addr left(Addr n) { return rec.read(t, n + fLeft); }
    Addr right(Addr n) { return rec.read(t, n + fRight); }
    Addr parent(Addr n) { return rec.read(t, n + fParent); }

    bool
    isRed(Addr n)
    {
        return n != 0 && rec.read(t, n + fColor) == red;
    }

    void setColor(Addr n, std::uint64_t c)
    {
        if (n != 0)
            rec.write(t, n + fColor, c);
    }

    void setLeft(Addr n, Addr v) { rec.write(t, n + fLeft, v); }
    void setRight(Addr n, Addr v) { rec.write(t, n + fRight, v); }
    void
    setParent(Addr n, Addr v)
    {
        if (n != 0)
            rec.write(t, n + fParent, v);
    }

    void
    rotateLeft(Addr x)
    {
        Addr y = right(x);
        Addr yl = left(y);
        setRight(x, yl);
        setParent(yl, x);
        Addr xp = parent(x);
        setParent(y, xp);
        if (xp == 0)
            setRoot(y);
        else if (left(xp) == x)
            setLeft(xp, y);
        else
            setRight(xp, y);
        setLeft(y, x);
        setParent(x, y);
    }

    void
    rotateRight(Addr x)
    {
        Addr y = left(x);
        Addr yr = right(y);
        setLeft(x, yr);
        setParent(yr, x);
        Addr xp = parent(x);
        setParent(y, xp);
        if (xp == 0)
            setRoot(y);
        else if (right(xp) == x)
            setRight(xp, y);
        else
            setLeft(xp, y);
        setRight(y, x);
        setParent(x, y);
    }

    Addr
    find(std::uint64_t k)
    {
        Addr n = root();
        while (n != 0) {
            std::uint64_t nk = key(n);
            if (nk == k)
                return n;
            n = k < nk ? left(n) : right(n);
        }
        return 0;
    }

    Addr
    minimum(Addr n)
    {
        Addr l = left(n);
        while (l != 0) {
            n = l;
            l = left(n);
        }
        return n;
    }

    void
    insertFixup(Addr z)
    {
        while (isRed(parent(z))) {
            Addr zp = parent(z);
            Addr zpp = parent(zp);
            if (zp == left(zpp)) {
                Addr uncle = right(zpp);
                if (isRed(uncle)) {
                    setColor(zp, black);
                    setColor(uncle, black);
                    setColor(zpp, red);
                    z = zpp;
                } else {
                    if (z == right(zp)) {
                        z = zp;
                        rotateLeft(z);
                        zp = parent(z);
                        zpp = parent(zp);
                    }
                    setColor(zp, black);
                    setColor(zpp, red);
                    rotateRight(zpp);
                }
            } else {
                Addr uncle = left(zpp);
                if (isRed(uncle)) {
                    setColor(zp, black);
                    setColor(uncle, black);
                    setColor(zpp, red);
                    z = zpp;
                } else {
                    if (z == left(zp)) {
                        z = zp;
                        rotateRight(z);
                        zp = parent(z);
                        zpp = parent(zp);
                    }
                    setColor(zp, black);
                    setColor(zpp, red);
                    rotateLeft(zpp);
                }
            }
        }
        setColor(root(), black);
    }

    /** Insert a fresh node. @return false if the key exists. */
    bool
    insert(Addr node, std::uint64_t k)
    {
        Addr parentNode = 0;
        Addr cur = root();
        while (cur != 0) {
            parentNode = cur;
            std::uint64_t ck = key(cur);
            if (ck == k)
                return false;
            cur = k < ck ? left(cur) : right(cur);
        }
        rec.write(t, node + fKey, k);
        rec.write(t, node + fValue, k * 3);
        rec.write(t, node + fColor, red);
        rec.write(t, node + fLeft, 0);
        rec.write(t, node + fRight, 0);
        rec.write(t, node + fParent, parentNode);
        if (parentNode == 0)
            setRoot(node);
        else if (k < key(parentNode))
            setLeft(parentNode, node);
        else
            setRight(parentNode, node);
        insertFixup(node);
        return true;
    }

    /** Replace subtree @p u with @p v (CLRS transplant). */
    void
    transplant(Addr u, Addr v)
    {
        Addr up = parent(u);
        if (up == 0)
            setRoot(v);
        else if (u == left(up))
            setLeft(up, v);
        else
            setRight(up, v);
        setParent(v, up);
    }

    void
    deleteFixup(Addr x, Addr xParent)
    {
        while (x != root() && !isRed(x)) {
            if (xParent == 0)
                break;
            if (x == left(xParent)) {
                Addr w = right(xParent);
                if (isRed(w)) {
                    setColor(w, black);
                    setColor(xParent, red);
                    rotateLeft(xParent);
                    w = right(xParent);
                }
                if (!isRed(left(w)) && !isRed(right(w))) {
                    setColor(w, red);
                    x = xParent;
                    xParent = parent(x);
                } else {
                    if (!isRed(right(w))) {
                        setColor(left(w), black);
                        setColor(w, red);
                        rotateRight(w);
                        w = right(xParent);
                    }
                    setColor(w, isRed(xParent) ? red : black);
                    setColor(xParent, black);
                    setColor(right(w), black);
                    rotateLeft(xParent);
                    x = root();
                    xParent = 0;
                }
            } else {
                Addr w = left(xParent);
                if (isRed(w)) {
                    setColor(w, black);
                    setColor(xParent, red);
                    rotateRight(xParent);
                    w = left(xParent);
                }
                if (!isRed(right(w)) && !isRed(left(w))) {
                    setColor(w, red);
                    x = xParent;
                    xParent = parent(x);
                } else {
                    if (!isRed(left(w))) {
                        setColor(right(w), black);
                        setColor(w, red);
                        rotateLeft(w);
                        w = left(xParent);
                    }
                    setColor(w, isRed(xParent) ? red : black);
                    setColor(xParent, black);
                    setColor(left(w), black);
                    rotateRight(xParent);
                    x = root();
                    xParent = 0;
                }
            }
        }
        setColor(x, black);
    }

    /** Remove node @p z from the tree (CLRS delete). */
    void
    remove(Addr z)
    {
        Addr y = z;
        bool yWasBlack = !isRed(y);
        Addr x;
        Addr xParent;
        if (left(z) == 0) {
            x = right(z);
            xParent = parent(z);
            transplant(z, x);
        } else if (right(z) == 0) {
            x = left(z);
            xParent = parent(z);
            transplant(z, x);
        } else {
            y = minimum(right(z));
            yWasBlack = !isRed(y);
            x = right(y);
            if (parent(y) == z) {
                xParent = y;
                setParent(x, y);
            } else {
                xParent = parent(y);
                transplant(y, x);
                setRight(y, right(z));
                setParent(right(y), y);
            }
            transplant(z, y);
            setLeft(y, left(z));
            setParent(left(y), y);
            setColor(y, isRed(z) ? red : black);
        }
        if (yWasBlack)
            deleteFixup(x, xParent);
    }
};

} // namespace

void
RbTreeWorkload::record(TraceRecorder &rec, PersistentHeap &heap,
                       const WorkloadParams &params)
{
    Rng rng(params.seed);
    keySpace = treeKeySpace;
    rootPtr = heap.alloc(0, lineBytes);
    rec.preload(rootPtr, 0);
    maxNodes = treeKeySpace + 16;

    // Warm the tree with a quarter of the key space. The warm tree
    // is built functionally in a scratch recorder and preloaded as
    // durable setup state, so only the measured mix is timed.
    {
        TraceRecorder scratch(1);
        scratch.preload(rootPtr, 0);
        Rb tree{scratch, 0, rootPtr};
        for (std::uint64_t k = 2; k < treeKeySpace; k += 4) {
            Addr node = heap.alloc(0, lineBytes);
            tree.insert(node, k);
        }
        for (auto [addr, value] : scratch.functionalMemory())
            rec.preload(addr, value);
    }

    for (unsigned op = 0; op < params.opsPerThread; ++op) {
        for (CoreId t = 0; t < params.numThreads; ++t) {
            std::uint64_t k = 1 + rng.nextBounded(treeKeySpace);
            bool doInsert = rng.chance(0.5);
            rec.lockAcquire(t, treeLock);
            rec.regionBegin(t);
            Rb tree{rec, t, rootPtr};
            rec.compute(t, 20);
            if (doInsert) {
                Addr node = heap.alloc(t, lineBytes);
                if (!tree.insert(node, k))
                    heap.free(t, node, lineBytes);
            } else {
                Addr victim = tree.find(k);
                if (victim != 0)
                    tree.remove(victim);
            }
            rec.regionEnd(t);
            rec.lockRelease(t, treeLock);
            rec.compute(t, 40);
        }
    }
}

std::string
RbTreeWorkload::checkUnit(
    std::size_t unit,
    const std::function<std::uint64_t(Addr)> &read) const
{
    (void)unit; // one unit: the whole structure
    Addr root = read(rootPtr);
    if (root == 0)
        return {}; // empty tree is consistent

    if (read(root + fColor) == red)
        return "root is red";
    if (read(root + fParent) != 0)
        return "root has a parent";

    // Iterative DFS checking BST order, red-red, black height, and
    // parent consistency.
    struct Frame
    {
        Addr node;
        std::uint64_t lo, hi;
    };
    std::vector<Frame> stack{{root, 0, ~std::uint64_t(0)}};
    std::uint64_t visited = 0;
    std::int64_t blackHeight = -1;

    // Compute black height along the leftmost path first.
    {
        std::int64_t h = 0;
        Addr n = root;
        while (n != 0) {
            if (read(n + fColor) == black)
                ++h;
            n = read(n + fLeft);
        }
        blackHeight = h;
    }

    // Full traversal with per-leaf black-height check.
    struct Frame2
    {
        Addr node;
        std::uint64_t lo, hi;
        std::int64_t blacks;
    };
    std::vector<Frame2> work{{root, 0, ~std::uint64_t(0), 0}};
    while (!work.empty()) {
        Frame2 f = work.back();
        work.pop_back();
        if (++visited > maxNodes)
            return "tree traversal did not terminate";

        std::uint64_t k = read(f.node + fKey);
        if (k <= f.lo || k >= f.hi)
            return "BST order violated";
        bool nodeRed = read(f.node + fColor) == red;
        Addr l = read(f.node + fLeft);
        Addr r = read(f.node + fRight);
        std::int64_t blacks = f.blacks + (nodeRed ? 0 : 1);

        for (Addr child : {l, r}) {
            if (child == 0)
                continue;
            if (read(child + fParent) != f.node)
                return "parent pointer inconsistent";
            if (nodeRed && read(child + fColor) == red)
                return "red-red violation";
        }
        // Every nil path must carry the same number of black nodes.
        if ((l == 0 || r == 0) && blacks != blackHeight)
            return "black height differs between nil paths";
        if (l != 0)
            work.push_back({l, f.lo, k, blacks});
        if (r != 0)
            work.push_back({r, k, f.hi, blacks});
    }
    return {};
}

} // namespace strand
