package eval

import (
	"fmt"
	"sort"
)

// Clustering is a set of possibly overlapping clusters over N sequences,
// identified by their database indices. Sequences in no cluster are
// outliers/unclustered.
type Clustering struct {
	N       int
	Members [][]int
}

// FromAssignments builds a (hard, non-overlapping) Clustering from an
// assignment vector in which entry i is sequence i's cluster, or −1 for
// unclustered.
func FromAssignments(assign []int) Clustering {
	k := 0
	for _, a := range assign {
		if a >= k {
			k = a + 1
		}
	}
	c := Clustering{N: len(assign), Members: make([][]int, k)}
	for i, a := range assign {
		if a >= 0 {
			c.Members[a] = append(c.Members[a], i)
		}
	}
	return c
}

// Assignments converts the clustering to a hard assignment vector, breaking
// overlapping membership toward the smallest cluster index and marking
// unclustered sequences −1.
func (c Clustering) Assignments() []int {
	out := make([]int, c.N)
	for i := range out {
		out[i] = -1
	}
	for k, members := range c.Members {
		for _, i := range members {
			if out[i] == -1 {
				out[i] = k
			}
		}
	}
	return out
}

// Validate checks all member indices are in range.
func (c Clustering) Validate() error {
	for k, members := range c.Members {
		for _, i := range members {
			if i < 0 || i >= c.N {
				return fmt.Errorf("eval: cluster %d has out-of-range member %d (N=%d)", k, i, c.N)
			}
		}
	}
	return nil
}

// PR is the paper's per-family precision/recall (§6.1): F is the set of
// sequences actually in the family, F' the set assigned to the family's
// cluster; precision = |F∩F'|/|F'|, recall = |F∩F'|/|F|.
type PR struct {
	Label     string
	TrueSize  int // |F|
	Assigned  int // |F'|
	Overlap   int // |F∩F'|
	Precision float64
	Recall    float64
}

// Report is the full quality summary for one clustering against
// ground-truth labels.
type Report struct {
	// Accuracy is the Table 2 "percentage of correctly labeled" measure: a
	// labeled sequence is correct when it is a member of the cluster
	// matched (one-to-one, maximal total overlap) to its true family.
	Accuracy float64
	// PerLabel holds one PR per ground-truth family, sorted by label.
	PerLabel []PR
	// MacroPrecision/MacroRecall average the per-family values.
	MacroPrecision float64
	MacroRecall    float64
	// ClusterLabel maps each cluster to its matched family ("" when the
	// cluster matched no family).
	ClusterLabel []string
	// NumClusters counts non-empty clusters; Unclustered counts labeled
	// sequences belonging to no cluster.
	NumClusters int
	Unclustered int
}

// Evaluate matches clusters to ground-truth families and computes the
// report. labels[i] is sequence i's family; sequences with an empty label
// (planted outliers) are excluded from all quality measures, matching the
// paper's synthetic experiments where outliers are not part of any family.
func Evaluate(c Clustering, labels []string) (Report, error) {
	if len(labels) != c.N {
		return Report{}, fmt.Errorf("eval: %d labels for %d sequences", len(labels), c.N)
	}
	if err := c.Validate(); err != nil {
		return Report{}, err
	}

	// Distinct labels, sorted for deterministic output.
	labelIdx := make(map[string]int)
	var labelNames []string
	for _, l := range labels {
		if l == "" {
			continue
		}
		if _, ok := labelIdx[l]; !ok {
			labelIdx[l] = 0
			labelNames = append(labelNames, l)
		}
	}
	sort.Strings(labelNames)
	for i, l := range labelNames {
		labelIdx[l] = i
	}
	nLabels := len(labelNames)
	trueSize := make([]int, nLabels)
	for _, l := range labels {
		if l != "" {
			trueSize[labelIdx[l]]++
		}
	}

	// Overlap matrix: clusters × labels, counting labeled members only.
	overlap := make([][]float64, len(c.Members))
	clusterLabeled := make([]int, len(c.Members))
	for k, members := range c.Members {
		overlap[k] = make([]float64, nLabels)
		for _, i := range members {
			if l := labels[i]; l != "" {
				overlap[k][labelIdx[l]]++
				clusterLabeled[k]++
			}
		}
	}

	rep := Report{ClusterLabel: make([]string, len(c.Members))}
	for _, members := range c.Members {
		if len(members) > 0 {
			rep.NumClusters++
		}
	}

	covered := make([]bool, c.N)
	for _, members := range c.Members {
		for _, i := range members {
			covered[i] = true
		}
	}
	labeledTotal := 0
	for i, l := range labels {
		if l == "" {
			continue
		}
		labeledTotal++
		if !covered[i] {
			rep.Unclustered++
		}
	}

	if nLabels == 0 || len(c.Members) == 0 {
		return rep, nil
	}

	clusterOfLabel := make([]int, nLabels)
	for i := range clusterOfLabel {
		clusterOfLabel[i] = -1
	}
	match, err := MaxAssignment(overlap)
	if err != nil {
		return Report{}, err
	}
	for k, lab := range match {
		if lab >= 0 && overlap[k][lab] > 0 {
			clusterOfLabel[lab] = k
			rep.ClusterLabel[k] = labelNames[lab]
		}
	}

	correct := 0
	for li, name := range labelNames {
		pr := PR{Label: name, TrueSize: trueSize[li]}
		if k := clusterOfLabel[li]; k >= 0 {
			pr.Assigned = clusterLabeled[k]
			pr.Overlap = int(overlap[k][li])
			if pr.Assigned > 0 {
				pr.Precision = float64(pr.Overlap) / float64(pr.Assigned)
			}
			if pr.TrueSize > 0 {
				pr.Recall = float64(pr.Overlap) / float64(pr.TrueSize)
			}
			correct += pr.Overlap
		}
		rep.PerLabel = append(rep.PerLabel, pr)
		rep.MacroPrecision += pr.Precision
		rep.MacroRecall += pr.Recall
	}
	rep.MacroPrecision /= float64(nLabels)
	rep.MacroRecall /= float64(nLabels)
	if labeledTotal > 0 {
		rep.Accuracy = float64(correct) / float64(labeledTotal)
	}
	return rep, nil
}

// F1 returns the harmonic mean of a PR's precision and recall.
func (pr PR) F1() float64 {
	if pr.Precision+pr.Recall == 0 {
		return 0
	}
	return 2 * pr.Precision * pr.Recall / (pr.Precision + pr.Recall)
}
