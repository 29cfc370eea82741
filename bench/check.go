package main

import (
	"encoding/json"
	"fmt"
	"math"

	"skewsim/internal/bitvec"
)

// answer is one query's result as the daemon reported it.
type answer struct {
	Found      bool    `json:"found"`
	ID         int64   `json:"id"`
	Similarity float64 `json:"similarity"`
}

// searchReply covers both /v1/search and /v1/search/batch bodies.
type searchReply struct {
	Found   bool `json:"found"`
	Matches []struct {
		ID         int64   `json:"id"`
		Similarity float64 `json:"similarity"`
	} `json:"matches"`
	Results []answer `json:"results"`
	Partial bool     `json:"partial"`
}

// answers decodes a 200 search response into one answer per query the
// request carried.
func (r request) answers(body []byte) ([]answer, error) {
	var rep searchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	if rep.Partial {
		return nil, fmt.Errorf("partial answer")
	}
	if r.path == "/v1/search" {
		a := answer{Found: rep.Found}
		if rep.Found {
			if len(rep.Matches) != 1 {
				return nil, fmt.Errorf("found with %d matches", len(rep.Matches))
			}
			a.ID, a.Similarity = rep.Matches[0].ID, rep.Matches[0].Similarity
		}
		return []answer{a}, nil
	}
	if len(rep.Results) != r.count {
		return nil, fmt.Errorf("%d results for %d queries", len(rep.Results), r.count)
	}
	return rep.Results, nil
}

// simTolerance is the slack on a recomputed similarity: the daemon and
// the checker divide the same two integers, so only float formatting
// through JSON can differ.
const simTolerance = 1e-12

// checker recomputes every answer from the generated inputs. It knows
// each id's vector: the corpus by position, later inserts by their
// acknowledgements.
type checker struct {
	w         workload
	in        *inputs
	vectors   map[int64]bitvec.Vector
	planted   []float64 // similarity of queries[k] to its planted target
	threshold float64   // mode "first" acceptance threshold

	attempted int // requests sent
	failed    int // non-200, shed, partial, undecodable or wrong
	firstFail string

	answered int // planted queries that could have been recalled
	recalled int // … and were answered at least as well as planted
}

func newChecker(w workload, in *inputs) *checker {
	c := &checker{w: w, in: in, vectors: make(map[int64]bitvec.Vector, len(in.corpus)), threshold: firstThreshold()}
	for i, v := range in.corpus {
		c.vectors[int64(i)] = v
	}
	c.planted = make([]float64, len(in.queries))
	for k, q := range in.queries {
		c.planted[k] = bitvec.BraunBlanquet(q, in.corpus[in.targets[k]])
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// checkAnswer verifies one answer to queries[k] in the given mode and
// reports whether it is wrong. Every reported similarity must equal the
// Braun-Blanquet measure recomputed from the vector the id names.
func (c *checker) checkAnswer(k int, mode string, a answer) error {
	if !a.Found {
		return nil // a miss costs recall, it is not a wrong answer
	}
	v, ok := c.vectors[a.ID]
	if !ok {
		return fmt.Errorf("query %d: unknown id %d", k, a.ID)
	}
	want := bitvec.BraunBlanquet(c.in.queries[k], v)
	if math.Abs(want-a.Similarity) > simTolerance {
		return fmt.Errorf("query %d: id %d reported similarity %v, recomputed %v", k, a.ID, a.Similarity, want)
	}
	if mode == "first" && a.Similarity < c.threshold-simTolerance {
		return fmt.Errorf("query %d: mode first returned %v below threshold %v", k, a.Similarity, c.threshold)
	}
	return nil
}

// countRecall scores one answer against the planted target: in mode
// best the answer must be at least as similar as the target; in mode
// first any hit counts, over the queries whose target clears the
// threshold (the others promise nothing).
func (c *checker) countRecall(k int, mode string, a answer) {
	if mode == "first" {
		if c.planted[k] < c.threshold {
			return
		}
		c.answered++
		if a.Found {
			c.recalled++
		}
		return
	}
	c.answered++
	if a.Found && a.Similarity >= c.planted[k]-simTolerance {
		c.recalled++
	}
}

// searchSamples checks every sample of a search phase. recall says
// whether the phase counts towards the recall metric.
func (c *checker) searchSamples(samples []sample, recall bool) {
	for _, s := range samples {
		c.attempted++
		r := s.r
		if s.status != 200 {
			c.fail("%s %s", r.path, describeStatus(s))
			continue
		}
		as, err := r.answers(s.body)
		if err != nil {
			c.fail("%s: %v", r.path, err)
			continue
		}
		wrong := false
		for j, a := range as {
			if err := c.checkAnswer(r.first+j, c.w.mode, a); err != nil {
				c.fail("%s: %v", r.path, err)
				wrong = true
				break
			}
		}
		if wrong || !recall {
			continue
		}
		for j, a := range as {
			c.countRecall(r.first+j, c.w.mode, a)
		}
	}
}

// insertAck records the ids a /v1/insert acknowledged for the vectors
// it carried and reports them.
func (c *checker) insertAck(s sample) []int64 {
	vs := c.in.writes[s.r.first : s.r.first+s.r.count]
	c.attempted++
	if s.status != 200 {
		c.fail("/v1/insert %s", describeStatus(s))
		return nil
	}
	var rep struct {
		IDs        []int64 `json:"ids"`
		NotDurable bool    `json:"not_durable"`
	}
	if err := json.Unmarshal(s.body, &rep); err != nil || len(rep.IDs) != len(vs) || rep.NotDurable {
		c.fail("/v1/insert: bad acknowledgement %.200s", s.body)
		return nil
	}
	for i, id := range rep.IDs {
		c.vectors[id] = vs[i]
	}
	return rep.IDs
}

// deleteAck checks that a /v1/delete removed every id it named.
func (c *checker) deleteAck(s sample) bool {
	c.attempted++
	want := s.r.count
	var rep struct {
		Deleted int `json:"deleted"`
	}
	if s.status != 200 || json.Unmarshal(s.body, &rep) != nil || rep.Deleted != want {
		c.fail("/v1/delete of %d ids: %s", want, describeStatus(s))
		return false
	}
	return true
}

func (c *checker) recall() float64 {
	if c.answered == 0 {
		return 0
	}
	return float64(c.recalled) / float64(c.answered)
}
